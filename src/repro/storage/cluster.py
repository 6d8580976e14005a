"""Self-healing distributed storage on LT network codes (§I, §VI).

The paper's "beyond dissemination" application: a cluster stores a
k-block object as LT-encoded packets spread over its nodes.  When a
node fails, a newcomer cannot ask the (long gone) source for fresh
encoded blocks; with plain erasure codes it would have to decode the
whole object first.  LTNC's recoding lets the newcomer rebuild *fresh*
LT-structured packets directly from the encoded packets of a few
surviving helpers — the decentralized self-healing the paper sketches,
analogous to [18], [19] for random linear codes.

:class:`StorageCluster` implements the full lifecycle:

* **populate** — a balanced LT encoder writes ``slots_per_node``
  packets to each node;
* **fail / repair** — a failed node is replaced by a newcomer that
  pulls the packets of ``repair_helpers`` random survivors into an
  LTNC recoder and emits fresh packets for its slots;
* **read** — a reader collects packets from a uniform sample of nodes
  and belief-propagates; :meth:`read_object` reports success and the
  number of packets consumed.

A ``naive`` repair mode (copy random helper packets verbatim) is the
baseline: it preserves nothing — duplicates accumulate and diversity
decays with churn — which the storage benches quantify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.packet import EncodedPacket, native_payloads
from repro.core.node import LtncNode
from repro.errors import StorageError
from repro.lt.decoder import BeliefPropagationDecoder
from repro.lt.distributions import RobustSoliton
from repro.lt.encoder import LTEncoder
from repro.rng import make_rng, spawn

__all__ = ["ReadOutcome", "StorageCluster"]


@dataclass(frozen=True)
class ReadOutcome:
    """Result of one object read attempt."""

    success: bool
    packets_used: int
    nodes_contacted: int
    decoded_natives: int


@dataclass
class _StorageNode:
    node_id: int
    packets: list[EncodedPacket] = field(default_factory=list)
    alive: bool = True
    generation: int = 0  # how many repairs produced this node's data


class StorageCluster:
    """A churn-prone cluster storing one object as LT-coded packets.

    Parameters
    ----------
    k:
        Number of native blocks of the stored object.
    n_nodes:
        Cluster size.
    slots_per_node:
        Encoded packets each node stores.
    content:
        Optional ``(k, m)`` uint8 payload matrix, converted to int
        payloads once; ``None`` for symbolic mode.
    repair_mode:
        ``"ltnc"`` (recode fresh LT-structured packets) or ``"naive"``
        (copy helper packets verbatim) — the baseline for ablation.
    repair_helpers:
        Surviving nodes contacted per repair.  Size it so that pulled
        packets exceed the code length (``repair_helpers *
        slots_per_node >= 2 * k`` is comfortable): a repair that sees
        fewer than ``(1 + eps) * k`` packets recodes from partial
        information and repeated repairs erode the cluster's rank.
    distribution:
        Degree distribution for the initial population and LTNC repairs
        (default Robust Soliton).  LT codes need roughly 3x redundancy
        at small k for reliable belief-propagation reads; size the
        cluster accordingly (``n_nodes * slots_per_node >= 3 * k``).
    rng:
        Master seed or generator.
    """

    def __init__(
        self,
        k: int,
        n_nodes: int,
        slots_per_node: int = 4,
        content: np.ndarray | None = None,
        repair_mode: str = "ltnc",
        repair_helpers: int = 8,
        distribution: RobustSoliton | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_nodes < 2:
            raise StorageError(f"need at least 2 nodes, got {n_nodes}")
        if slots_per_node < 1:
            raise StorageError(
                f"slots_per_node must be >= 1, got {slots_per_node}"
            )
        if repair_mode not in ("ltnc", "naive"):
            raise StorageError(
                f"repair_mode must be 'ltnc' or 'naive', got {repair_mode!r}"
            )
        if repair_helpers < 1:
            raise StorageError(
                f"repair_helpers must be >= 1, got {repair_helpers}"
            )
        self.k = k
        self.n_nodes = n_nodes
        self.slots_per_node = slots_per_node
        self.content = content
        natives = native_payloads(content, k)
        self.payload_nbytes = natives.nbytes if natives is not None else None
        self.repair_mode = repair_mode
        self.repair_helpers = repair_helpers
        master = make_rng(rng)
        self._rng, encoder_rng, self._repair_rng = spawn(master, 3)
        self.repairs_done = 0
        self.failures = 0
        self.distribution = (
            distribution if distribution is not None else RobustSoliton(k)
        )
        encoder = LTEncoder(
            k,
            self.distribution,
            payloads=natives,
            rng=encoder_rng,
            balanced=True,
        )
        self.nodes = [
            _StorageNode(i, [encoder.next_packet() for _ in range(slots_per_node)])
            for i in range(n_nodes)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def alive_nodes(self) -> list[int]:
        return [n.node_id for n in self.nodes if n.alive]

    def stored_packets(self) -> list[EncodedPacket]:
        """All packets on live nodes (flattened)."""
        return [
            p for node in self.nodes if node.alive for p in node.packets
        ]

    def degree_histogram(self) -> dict[int, int]:
        """Degrees of stored packets — RS preservation under churn."""
        hist: dict[int, int] = {}
        for packet in self.stored_packets():
            hist[packet.degree] = hist.get(packet.degree, 0) + 1
        return hist

    def distinct_vectors(self) -> int:
        """Distinct code vectors among live packets (diversity metric)."""
        return len({p.vector.key() for p in self.stored_packets()})

    def max_generation(self) -> int:
        return max(node.generation for node in self.nodes)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int) -> None:
        """Take a node down, losing its packets."""
        node = self.nodes[node_id]
        if not node.alive:
            raise StorageError(f"node {node_id} is already down")
        node.alive = False
        node.packets = []
        self.failures += 1

    def fail_random(self) -> int:
        """Fail one random live node; returns its id."""
        alive = self.alive_nodes()
        if len(alive) <= 1:
            raise StorageError("refusing to fail the last live node")
        victim = int(alive[self._rng.integers(len(alive))])
        self.fail_node(victim)
        return victim

    def repair_node(self, node_id: int) -> None:
        """Bring a newcomer up in place of a failed node.

        The newcomer contacts ``repair_helpers`` random survivors and
        fills its slots according to ``repair_mode``.  LTNC repair is
        *adaptive*: if the pulled packets leave the recoder's belief
        propagation incomplete (LT codes need ``(1 + eps) * k`` packets,
        and a recoder stuck below full knowledge would under-produce the
        degree-1/2 packets future repairs depend on — an erosion that
        compounds across repair generations), it escalates to further
        survivors until it decodes or the cluster is exhausted.  Healthy
        clusters therefore pay the minimum contact budget, degraded
        ones pay what correctness costs.
        """
        node = self.nodes[node_id]
        if node.alive:
            raise StorageError(f"node {node_id} is not down")
        alive = self.alive_nodes()
        if not alive:
            raise StorageError("no live nodes left to repair from")
        order = self._repair_rng.permutation(len(alive))
        h = min(self.repair_helpers, len(alive))
        if self.repair_mode == "naive":
            pulled = [
                packet
                for i in order[:h]
                for packet in self.nodes[alive[int(i)]].packets
            ]
            if not pulled:
                raise StorageError("helpers had no packets; cluster is empty")
            picks = self._repair_rng.choice(
                len(pulled), size=self.slots_per_node, replace=True
            )
            node.packets = [pulled[int(i)].copy() for i in picks]
        else:
            recoder = LtncNode(
                node_id,
                self.k,
                payload_nbytes=self.payload_nbytes,
                distribution=self.distribution,
                rng=spawn(self._repair_rng, 1)[0],
                aggressiveness=0.0,
            )
            contacted = 0
            for i in order:
                if contacted >= h and recoder.is_complete():
                    break
                for packet in self.nodes[alive[int(i)]].packets:
                    recoder.receive(packet)
                contacted += 1
            if recoder.innovative_count == 0:
                raise StorageError("helpers had no packets; cluster is empty")
            node.packets = [
                recoder.make_packet() for _ in range(self.slots_per_node)
            ]
        node.alive = True
        node.generation = self.max_generation() + 1
        self.repairs_done += 1

    def churn(self, events: int) -> None:
        """*events* fail-then-repair cycles on random nodes."""
        for _ in range(events):
            victim = self.fail_random()
            self.repair_node(victim)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_object(
        self,
        sample_nodes: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> ReadOutcome:
        """Collect packets from a node sample and belief-propagate.

        Contacts ``sample_nodes`` random live nodes (all, by default)
        in random order, feeding their packets to a fresh decoder until
        the object is recovered or the sample is exhausted.
        """
        reader_rng = make_rng(rng) if rng is not None else self._rng
        alive = self.alive_nodes()
        n = len(alive) if sample_nodes is None else min(sample_nodes, len(alive))
        order = reader_rng.permutation(len(alive))[:n]
        decoder = BeliefPropagationDecoder(self.k)
        used = 0
        for i in order:
            for packet in self.nodes[alive[int(i)]].packets:
                decoder.receive(packet)
                used += 1
                if decoder.is_complete():
                    return ReadOutcome(True, used, n, self.k)
        return ReadOutcome(False, used, n, decoder.decoded_count)

    def read_content(self) -> np.ndarray:
        """Decode and return the stored object (requires payload mode)."""
        if self.content is None:
            raise StorageError("symbolic cluster stores no payload bytes")
        decoder = BeliefPropagationDecoder(
            self.k, payload_nbytes=self.payload_nbytes
        )
        for packet in self.stored_packets():
            decoder.receive(packet)
            if decoder.is_complete():
                return decoder.recovered_content()
        raise StorageError(
            f"object unrecoverable: {decoder.decoded_count}/{self.k} natives"
        )

    def __repr__(self) -> str:
        return (
            f"StorageCluster(k={self.k}, nodes={self.n_nodes}, "
            f"alive={len(self.alive_nodes())}, repairs={self.repairs_done}, "
            f"mode={self.repair_mode!r})"
        )
