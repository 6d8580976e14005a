"""Raptor codes: precoded LT codes (Shokrollahi, cited as [26]).

The paper positions LTNC relative to Raptor codes — "LT codes built on
precoded native packets" — and to Raptor-based network coding [9],
whose recoding destroys the degree structure.  This module supplies the
Raptor substrate itself so those comparisons can be run:

* a **precode** appends ``p`` parity symbols to the ``k`` data symbols,
  each parity being the XOR of a few random data symbols.  Every parity
  constraint is, to belief propagation, just an encoded packet with an
  all-zero payload (``XOR(data subset) ^ parity = 0``) known before any
  transmission — the decoder is pre-seeded with them;
* the **output code** is a plain LT code over the ``k + p`` intermediate
  symbols.  Raptor's insight is that the output distribution no longer
  needs to cover every symbol (the precode mops up the tail), so it can
  be capped at a constant maximum degree: :class:`RaptorDistribution`
  implements Shokrollahi's ``Omega(x)`` with its closed-form
  coefficients.

Because constraints are ordinary packets, the whole LT machinery —
including LTNC recoding over intermediate symbols — applies unchanged;
:class:`RaptorDecoder` merely redefines completion as *data* recovery.
"""

from __future__ import annotations

import numpy as np

from repro.coding.packet import EncodedPacket, payload_matrix
from repro.errors import DimensionError, DistributionError
from repro.lt.decoder import BeliefPropagationDecoder, ReceiveOutcome
from repro.lt.distributions import DegreeDistribution
from repro.lt.encoder import LTEncoder
from repro.rng import make_rng, spawn

__all__ = ["RaptorDistribution", "Precode", "RaptorEncoder", "RaptorDecoder"]


class RaptorDistribution(DegreeDistribution):
    """Shokrollahi's capped output distribution ``Omega(x)``.

    With ``D = ceil(4 (1 + eps) / eps)`` and ``mu = (eps/2) + (eps/2)^2``:

    ``Omega(x) = (mu x + sum_{i=2..D} x^i / (i (i-1)) + x^{D+1} / D)
    / (mu + 1)``

    The maximum degree is the constant ``D + 1`` — unlike the Robust
    Soliton there is no spike at ``k/R`` because the precode, not the
    output code, guarantees full coverage.
    """

    def __init__(self, k: int, eps: float = 0.1) -> None:
        if k <= 0:
            raise DistributionError(f"k must be positive, got {k}")
        if eps <= 0:
            raise DistributionError(f"eps must be positive, got {eps}")
        self.eps = eps
        d_max = int(np.ceil(4.0 * (1.0 + eps) / eps))
        d_max = min(d_max, k - 1) if k > 1 else 1
        mu = (eps / 2.0) + (eps / 2.0) ** 2
        pmf = np.zeros(k + 1)
        pmf[1] = mu
        top = min(d_max, k)
        degrees = np.arange(2, top + 1, dtype=np.float64)
        pmf[2 : top + 1] = 1.0 / (degrees * (degrees - 1.0))
        if d_max + 1 <= k:
            pmf[d_max + 1] += 1.0 / d_max
        self.d_max = d_max
        super().__init__(k, pmf / pmf.sum())


class Precode:
    """A sparse random parity precode over ``k`` data symbols.

    Each of the ``p`` parity symbols XORs ``parity_degree`` distinct
    random data symbols.  :meth:`constraints` exposes the parity
    equations as zero-payload encoded packets over the intermediate
    block, ready to pre-seed any LT decoder.
    """

    def __init__(
        self,
        k: int,
        expansion: float = 0.12,
        parity_degree: int = 4,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        if expansion < 0:
            raise DimensionError(f"expansion must be >= 0, got {expansion}")
        if parity_degree < 1:
            raise DimensionError(
                f"parity_degree must be >= 1, got {parity_degree}"
            )
        self.k = k
        self.p = int(round(expansion * k))
        self.parity_degree = min(parity_degree, k)
        generator = make_rng(rng)
        self.parity_supports: list[np.ndarray] = [
            np.sort(generator.choice(k, size=self.parity_degree, replace=False))
            for _ in range(self.p)
        ]

    @property
    def n_intermediate(self) -> int:
        """Size of the intermediate block (data + parity)."""
        return self.k + self.p

    def extend(self, content: np.ndarray) -> np.ndarray:
        """Compute the intermediate block: data rows plus parity rows."""
        content = np.asarray(content, dtype=np.uint8)
        if content.ndim != 2 or content.shape[0] != self.k:
            raise DimensionError(
                f"content shape {content.shape} vs (k={self.k}, m)"
            )
        rows = [content]
        for support in self.parity_supports:
            parity = np.zeros(content.shape[1], dtype=np.uint8)
            for i in support:
                parity ^= content[int(i)]
            rows.append(parity[None, :])
        return np.concatenate(rows, axis=0)

    def constraints(self, payload_nbytes: int | None = None) -> list[EncodedPacket]:
        """The parity equations as zero-payload encoded packets.

        ``XOR(data subset) ^ parity_j = 0`` means the packet with
        support ``subset + {k + j}`` carries the all-zero payload; the
        receiver knows it without any communication.
        """
        packets = []
        n = self.n_intermediate
        for j, support in enumerate(self.parity_supports):
            indices = [int(i) for i in support] + [self.k + j]
            packet = EncodedPacket.combine(n, indices)
            if payload_nbytes is not None:
                packet.payload = 0
            packets.append(packet)
        return packets


class RaptorEncoder:
    """LT encoder over a precoded intermediate block."""

    def __init__(
        self,
        k: int,
        content: np.ndarray | None = None,
        expansion: float = 0.12,
        parity_degree: int = 4,
        eps: float = 0.1,
        distribution: DegreeDistribution | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        generator = make_rng(rng)
        precode_rng, lt_rng = spawn(generator, 2)
        self.k = k
        self.precode = Precode(
            k, expansion=expansion, parity_degree=parity_degree, rng=precode_rng
        )
        n = self.precode.n_intermediate
        if distribution is None:
            distribution = RaptorDistribution(n, eps=eps)
        elif distribution.k != n:
            raise DimensionError(
                f"distribution is for k={distribution.k}, "
                f"intermediate block is {n}"
            )
        payloads = self.precode.extend(content) if content is not None else None
        self.payload_nbytes = (
            int(content.shape[1]) if content is not None else None
        )
        self.lt = LTEncoder(n, distribution, payloads=payloads, rng=lt_rng)

    @property
    def n_intermediate(self) -> int:
        return self.precode.n_intermediate

    def next_packet(self) -> EncodedPacket:
        """One LT packet over the intermediate block."""
        return self.lt.next_packet()

    def decoder(self) -> "RaptorDecoder":
        """A decoder pre-seeded with this encoder's parity constraints."""
        return RaptorDecoder(self.precode, payload_nbytes=self.payload_nbytes)


class RaptorDecoder:
    """Belief propagation over the intermediate block, data-complete.

    The parity constraints enter the Tanner graph before any received
    packet, so late-arriving intermediate symbols decode through the
    precode — the mechanism that lets Raptor cap its output degrees.
    """

    def __init__(
        self, precode: Precode, payload_nbytes: int | None = None
    ) -> None:
        self.precode = precode
        self.inner = BeliefPropagationDecoder(
            precode.n_intermediate, payload_nbytes=payload_nbytes
        )
        self.payload_nbytes = payload_nbytes
        self.constraint_packets = 0
        for packet in precode.constraints(payload_nbytes):
            self.inner.receive(packet)
            self.constraint_packets += 1

    @property
    def k(self) -> int:
        return self.precode.k

    def receive(self, packet: EncodedPacket) -> ReceiveOutcome:
        return self.inner.receive(packet)

    def data_decoded_count(self) -> int:
        """Data symbols recovered so far (parity symbols excluded)."""
        return sum(
            1 for i in range(self.k) if self.inner.is_decoded(i)
        )

    def is_complete(self) -> bool:
        """True iff every *data* symbol is recovered."""
        return self.data_decoded_count() == self.k

    def recovered_content(self) -> np.ndarray:
        """The (k, m) data matrix; parity rows are internal."""
        if not self.is_complete():
            raise DimensionError(
                f"decoded {self.data_decoded_count()}/{self.k} data symbols"
            )
        rows = [self.inner.native_payload(i) for i in range(self.k)]
        if any(r is None for r in rows) or self.payload_nbytes is None:
            raise DimensionError("symbolic mode: no payload bytes to return")
        return payload_matrix(rows, self.payload_nbytes)  # type: ignore[arg-type]
