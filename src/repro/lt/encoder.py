"""LT source encoder (Luby, FOCS'02).

The source holds all *k* native packets, so producing LT-structured
output is easy (§III of the paper: "this can easily be achieved at the
source where all native packets are available"): draw a degree *d* from
the Robust Soliton and combine *d* distinct natives chosen uniformly at
random.

A *balanced* mode selects the least-used natives instead of uniform
ones, driving the native-degree distribution toward the Dirac the paper
asks for; it is the source-side analogue of LTNC's refinement step and
is exercised by the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.coding.packet import EncodedPacket, NativePayloads, native_payloads
from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError
from repro.gf2.bitvec import BitVector
from repro.lt.distributions import DegreeDistribution
from repro.rng import make_rng

__all__ = ["LTEncoder"]


class LTEncoder:
    """Generates a rateless stream of LT-encoded packets.

    Parameters
    ----------
    k:
        Number of native packets.
    distribution:
        Degree distribution for encoded packets (normally
        :class:`~repro.lt.distributions.RobustSoliton`).
    payloads:
        Optional ``(k, m)`` uint8 matrix of native payloads (or its
        :func:`~repro.coding.packet.native_payloads` conversion); omit
        for symbolic mode.
    rng:
        Seed or generator for degree and neighbour draws.
    balanced:
        When true, pick the *d* least-used natives (ties broken at
        random) instead of a uniform sample, minimising the variance of
        native degrees across the emitted stream.
    counter:
        Cost accounting destination (control + data ops).
    """

    def __init__(
        self,
        k: int,
        distribution: DegreeDistribution,
        payloads: np.ndarray | NativePayloads | None = None,
        rng: np.random.Generator | int | None = None,
        balanced: bool = False,
        counter: OpCounter | None = None,
    ) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        if distribution.k != k:
            raise DimensionError(
                f"distribution is for k={distribution.k}, encoder for k={k}"
            )
        self.k = k
        self.distribution = distribution
        self.payloads = native_payloads(payloads, k)
        self.rng = make_rng(rng)
        self.balanced = balanced
        self.counter = counter if counter is not None else OpCounter()
        self.usage = np.zeros(k, dtype=np.int64)
        self.emitted = 0

    # ------------------------------------------------------------------
    def _pick_neighbours(self, d: int) -> np.ndarray:
        self.counter.add("rng_draw")
        if not self.balanced:
            return self.rng.choice(self.k, size=d, replace=False)
        # Least-used natives first; random jitter breaks ties uniformly.
        jitter = self.rng.random(self.k)
        order = np.lexsort((jitter, self.usage))
        return order[:d]

    def next_packet(self) -> EncodedPacket:
        """Generate one fresh LT-encoded packet."""
        d = self.distribution.sample(self.rng)
        self.counter.add("rng_draw")
        neighbours = self._pick_neighbours(d)
        vector = BitVector.from_indices(self.k, (int(i) for i in neighbours))
        self.counter.add("vec_word_xor", vector.nwords() * d)
        payload: int | None = None
        if self.payloads is not None:
            rows = self.payloads
            payload = 0
            for i in neighbours.tolist():
                payload ^= rows[i]
        self.counter.add("payload_xor", max(0, d - 1))
        self.usage[neighbours] += 1
        self.emitted += 1
        return EncodedPacket(vector, payload)

    def packets(self, n: int) -> list[EncodedPacket]:
        """Generate *n* fresh packets."""
        return [self.next_packet() for _ in range(n)]

    def native_degree_rsd(self) -> float:
        """Relative standard deviation of native usage so far.

        The paper reports 0.1 % for packets sent by LTNC nodes; the
        balanced encoder achieves a comparable figure at the source.
        """
        mean = float(self.usage.mean())
        if mean == 0:
            return 0.0
        return float(self.usage.std() / mean)

    def __repr__(self) -> str:
        return (
            f"LTEncoder(k={self.k}, emitted={self.emitted}, "
            f"balanced={self.balanced})"
        )
