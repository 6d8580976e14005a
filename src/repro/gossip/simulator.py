"""Round-based epidemic push dissemination simulator (§IV-A).

A network of *N* nodes receives content split into *k* native packets
from one source.  Each gossip period:

1. the source pushes ``source_pushes`` fresh packets to random nodes;
2. every node that passed its aggressiveness trigger pushes one fresh
   (re)coded packet to one random peer, in a random order.

Transfers model the paper's TCP sessions: the code vector travels in
the header, so with a **binary** feedback channel the receiver can run
its redundancy check on the header alone and abort before the payload
is shipped (the session still costs a control exchange).  With a
**full** feedback channel the receiver additionally ships its
component-leader array beforehand, enabling LTNC's Algorithm-4 smart
construction for degrees 1-2.  With feedback **off**, every session
ships its payload.

The simulator is scheme-agnostic through the
:class:`~repro.schemes.descriptor.SchemeNode` protocol and the
:mod:`repro.schemes` registry, and collects the §IV-B metrics into a
:class:`~repro.gossip.metrics.DisseminationResult`.
"""

from __future__ import annotations

import enum
from itertools import repeat
from time import perf_counter

import numpy as np

from repro.errors import SimulationError
from repro.gossip.channel import ChannelModel
from repro.gossip.metrics import DisseminationResult
from repro.gossip.peer_sampling import PeerSampler, UniformSampler
from repro.obs.metrics import (
    ROUND_BOUNDARIES,
    VOLUME_BOUNDARIES,
    MetricsCollector,
)
from repro.obs.profiler import PhaseProfiler, set_refine_profiler
from repro.obs.spans import SpanRecorder
from repro.obs.tracer import NULL_TRACER, node_rank
from repro.rng import derive, make_rng, spawn
from repro.schemes import CodingScheme, SchemeNode, resolve

__all__ = [
    "Feedback",
    "EpidemicSimulator",
    "run_dissemination",
    "ROUND_PLAN_VERSION",
    "validate_round_plan",
]

#: Version of the round-plan rng-stream layout.  The round executor
#: draws in bulk and may reorder draws **across** independent streams;
#: within every stream the draw sequence is pinned, and this constant
#: names the pinned layout so future changes must bump it explicitly:
#:
#: v1 — per round, in order:
#:   * fault stream: one ``churns`` draw, then the ``_churn`` victim
#:     draw when it fires, then per-transfer loss/duplicate draws in
#:     transfer order (a planned run may hoist its loss draws into one
#:     bulk draw only when no abort or duplicate draw can interleave:
#:     ``feedback is NONE and duplicate_rate == 0``);
#:   * order stream: one bulk ``integers(n_nodes, size=sources*pushes)``
#:     draw (== one draw per source push), then one
#:     ``permutation(n_nodes)``;
#:   * sampler stream: one target draw per sendable sender in
#:     permutation order, batched per maximal run of senders that are
#:     sendable when the run starts (``can_send`` is monotone within a
#:     node's lifetime — part of the scheme-node contract — so batching
#:     the draws of an already-sendable run cannot change its
#:     membership);
#:   * node streams: untouched — each node's draws happen inside its
#:     own ``make_packet``/``receive`` calls, whose order the plan
#:     preserves exactly.
ROUND_PLAN_VERSION = 1


def validate_round_plan(version: object) -> None:
    """Raise ``ValueError`` unless *version* names the pinned layout.

    The round-plan "artifact" is an rng-stream layout rather than a
    JSON payload, so the validator checks the one thing a consumer can
    carry: the layout version (a bare int, or a mapping with a
    ``round_plan_version`` key).  Registered in
    :mod:`repro.analysis.schemas` so the determinism linter ties the
    constant above to this contract.
    """
    if isinstance(version, dict):
        version = version.get("round_plan_version")
    if version != ROUND_PLAN_VERSION:
        raise ValueError(
            f"round_plan_version != {ROUND_PLAN_VERSION}: got {version!r}"
        )


class Feedback(enum.Enum):
    """Feedback-channel capability of the transport (§III-C2)."""

    NONE = "none"
    BINARY = "binary"
    FULL = "full"


class EpidemicSimulator:
    """One dissemination experiment: a source, *N* nodes, a scheme.

    Parameters
    ----------
    scheme:
        A registered scheme name (``"wc"``, ``"rlnc"``, ``"ltnc"``,
        ... — see :func:`repro.schemes.available_schemes`) or a
        :class:`~repro.schemes.descriptor.CodingScheme` descriptor.
    n_nodes:
        Network size *N* (receivers; the source is separate).
    k:
        Code length.
    content:
        Optional ``(k, m)`` payload matrix.  ``None`` runs in symbolic
        mode: all structure evolves identically, data XORs are counted
        but not executed (DESIGN.md §3) — the mode benches use.
    feedback:
        Transport capability; the paper's evaluation uses BINARY.
    source_pushes:
        Packets injected by the source per gossip period.
    max_rounds:
        Safety horizon; the run stops earlier once every node decoded.
    n_sources:
        Number of independent full-content sources (replicated origins;
        edge-cache and multi-origin scenarios use more than one).  Each
        source injects ``source_pushes`` packets per round.
    seed:
        Master seed; node rngs are derived deterministically.
    node_kwargs:
        Forwarded to every node constructor (scheme-specific knobs).
    source_kwargs:
        Forwarded to the source constructor.
    sampler:
        Peer-sampling service; uniform by default.
    channel:
        Fault model (loss / duplication / churn); perfect by default.
    tracer:
        Observability sink (:class:`repro.obs.tracer.JsonlTracer`);
        defaults to the shared null tracer.  Tracing reads no rng and
        charges no OpCounter, so results are bit-identical either way
        (pinned by ``tests/test_obs_invariance.py``).
    profiler:
        Optional :class:`repro.obs.profiler.PhaseProfiler`; when given,
        the run charges per-phase wall times (sampling / channel /
        encode / decode / refine) through ``perf_counter`` brackets in
        the one round executor.  The brackets read no rng and change no
        state; disabled, each is a ``None`` check.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsCollector`; the run
        records its mergeable telemetry (counters, gauges, histograms)
        into it after the loop finishes.  Recording reads only final
        result state — no rng draws, no OpCounter charges.

    Every round runs through one executor, :meth:`step`, which plans
    the round's randomness in bulk under the ``ROUND_PLAN_VERSION``
    stream layout; ``tests/test_batch_equivalence.py`` pins its results
    and OpCounter totals against an exact golden grid.
    """

    def __init__(
        self,
        scheme: str | CodingScheme,
        n_nodes: int,
        k: int,
        content: np.ndarray | None = None,
        feedback: Feedback = Feedback.BINARY,
        source_pushes: int = 4,
        n_sources: int = 1,
        max_rounds: int = 100_000,
        seed: int | np.random.Generator | None = 0,
        node_kwargs: dict[str, object] | None = None,
        source_kwargs: dict[str, object] | None = None,
        sampler: PeerSampler | None = None,
        channel: ChannelModel | None = None,
        tracer=None,
        profiler: PhaseProfiler | None = None,
        metrics: MetricsCollector | None = None,
    ) -> None:
        if n_nodes < 2:
            raise SimulationError(f"n_nodes must be >= 2, got {n_nodes}")
        if source_pushes < 1:
            raise SimulationError(
                f"source_pushes must be >= 1, got {source_pushes}"
            )
        if n_sources < 1:
            raise SimulationError(f"n_sources must be >= 1, got {n_sources}")
        self.coding_scheme = resolve(scheme)
        self.scheme = self.coding_scheme.name
        self.n_nodes = n_nodes
        self.k = k
        self.feedback = feedback
        self.source_pushes = source_pushes
        self.n_sources = n_sources
        self.max_rounds = max_rounds
        master = make_rng(seed)
        rngs = spawn(master, n_nodes + 2)
        payload_nbytes = int(content.shape[1]) if content is not None else None
        self.sources: list[SchemeNode] = [
            self.coding_scheme.make_source(
                k, content, rng=rngs[0], **(source_kwargs or {})
            )
        ]
        self.nodes: list[SchemeNode] = [
            self.coding_scheme.make_node(
                i,
                k,
                payload_nbytes=payload_nbytes,
                n_nodes=n_nodes,
                rng=rngs[i + 1],
                **(node_kwargs or {}),
            )
            for i in range(n_nodes)
        ]
        self.sampler = (
            sampler
            if sampler is not None
            else UniformSampler(n_nodes, rng=rngs[-1])
        )
        self.channel = channel if channel is not None else ChannelModel()
        self._order_rng = make_rng(int(master.integers(0, 2**63)))
        self._fault_rng = make_rng(int(master.integers(0, 2**63)))
        self._node_rng_seed = int(master.integers(0, 2**63))
        # Extra sources draw their rngs from the derive() tree so the
        # n_sources=1 stream layout stays bit-identical to older runs.
        for j in range(1, n_sources):
            self.sources.append(
                self.coding_scheme.make_source(
                    k,
                    content,
                    rng=derive(self._node_rng_seed, "source", j),
                    **(source_kwargs or {}),
                )
            )
        self._payload_nbytes = payload_nbytes
        self._node_kwargs = dict(node_kwargs or {})
        self.result = DisseminationResult(self.scheme, n_nodes, k)
        self._data_received = [0] * n_nodes
        # Incomplete node ids, maintained incrementally as completions
        # are detected (prewarm / transfer), so churn never rescans the
        # whole membership.
        self._incomplete: set[int] = {
            i for i, node in enumerate(self.nodes) if not node.is_complete()
        }
        # Observability hooks on the one round executor: the profiler is
        # None unless profiling, and session events are one flag check
        # per planned run.  Round-level trace events fire either way.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler
        self.metrics = metrics
        self._trace = bool(self.tracer.enabled)
        self._trace_sessions = self._trace and self.tracer.detail == "session"
        # Nodes whose can_send() has been observed True.  Valid as a
        # cache because can_send is monotone within a node's lifetime
        # (scheme-node contract); _churn drops the crashed identity.
        self._sendable: set[int] = set()
        # Hoisting a run's loss draws into one delivers_batch call is
        # stream-legal only when every session reaches its loses() call
        # with nothing interleaved: no header aborts (feedback is NONE)
        # and no duplicate draws.
        self._plan_channel = (
            feedback is Feedback.NONE and self.channel.duplicate_rate == 0.0
        )
        self._trace_completed: set[int] = set()
        self._trace_prev = dict.fromkeys(
            (
                "sessions",
                "aborted",
                "useful_transfers",
                "redundant_transfers",
                "lost_transfers",
                "duplicated_transfers",
            ),
            0,
        )

    @property
    def source(self) -> SchemeNode:
        """The first (historically only) content source."""
        return self.sources[0]

    # ------------------------------------------------------------------
    def prewarm(self, node_ids: list[int], packets_per_node: int) -> None:
        """Pre-load node caches before round 0 (edge-cache workloads).

        Packets are drawn from the sources round-robin and delivered
        out-of-band — no session metrics are recorded, mirroring
        content pre-placement that happened before the gossip epoch
        started (Recayte et al., caching at the edge with LT codes).
        Warm packets do count as data received, so the overhead metric
        keeps meaning "packets delivered beyond the k fundamentally
        needed" (and stays non-negative).  A node that completes during
        warm-up is recorded as completing at round 0.
        """
        if packets_per_node < 0:
            raise SimulationError(
                f"packets_per_node must be >= 0, got {packets_per_node}"
            )
        for idx, node_id in enumerate(node_ids):
            node = self.nodes[node_id]
            source = self.sources[idx % len(self.sources)]
            for _ in range(packets_per_node):
                if node.is_complete():
                    break
                self._data_received[node_id] += 1
                node.receive(source.make_packet(None))
            if node.is_complete():
                self._incomplete.discard(node_id)
                self.result.completion_rounds.setdefault(node_id, 0)
                self.result.data_until_complete.setdefault(
                    node_id, self._data_received[node_id]
                )

    # ------------------------------------------------------------------
    def _transfer(
        self,
        sender: SchemeNode,
        receiver_id: int,
        round_index: int,
        delivered: bool | None,
    ) -> None:
        """One push session from *sender* to node *receiver_id*.

        *delivered* is the channel outcome the round plan drew up front
        under the ``_plan_channel`` gate (feedback NONE, duplicate rate
        0: no abort can fire and ``duplicates`` never draws); ``None``
        draws the loss and duplicate outcomes inline, in session order.
        With a profiler, brackets charge encode (packet construction),
        decode (feedback state, header check, receive) and channel
        (inline fault draws).
        """
        prof = self.profiler
        receiver = self.nodes[receiver_id]
        result = self.result
        result.sessions += 1
        receiver_state = None
        if self.feedback is Feedback.FULL:
            t0 = perf_counter() if prof is not None else 0.0
            receiver_state = receiver.feedback_state()
            if prof is not None:
                prof.add("decode", perf_counter() - t0)
        t0 = perf_counter() if prof is not None else 0.0
        packet = sender.make_packet(receiver_state)
        if prof is not None:
            prof.add("encode", perf_counter() - t0)
        result.recoded_packets += 1
        if self.feedback is not Feedback.NONE:
            t0 = perf_counter() if prof is not None else 0.0
            innovative = receiver.header_is_innovative(packet.vector)
            if prof is not None:
                prof.add("decode", perf_counter() - t0)
            if not innovative:
                result.aborted += 1
                return
        result.data_transfers += 1
        was_complete = receiver.is_complete()
        if not was_complete:
            self._data_received[receiver_id] += 1
        duplicated = False
        if delivered is None:
            t0 = perf_counter() if prof is not None else 0.0
            delivered = not self.channel.loses(
                self._fault_rng, int(getattr(sender, "node_id", -1)), receiver_id
            )
            duplicated = delivered and self.channel.duplicates(self._fault_rng)
            if prof is not None:
                prof.add("channel", perf_counter() - t0)
        if not delivered:
            # The payload bytes were spent but never arrived.
            result.lost_transfers += 1
            return
        t0 = perf_counter() if prof is not None else 0.0
        useful = receiver.receive(packet)
        if duplicated:
            result.duplicated_transfers += 1
            receiver.receive(packet.copy())
        if prof is not None:
            prof.add("decode", perf_counter() - t0)
        if useful:
            result.useful_transfers += 1
        else:
            result.redundant_transfers += 1
        if not was_complete and receiver.is_complete():
            self._incomplete.discard(receiver_id)
            result.completion_rounds[receiver_id] = round_index
            result.data_until_complete[receiver_id] = self._data_received[
                receiver_id
            ]

    def _churn(self, round_index: int = -1) -> None:
        """Crash-and-restart one random incomplete node.

        Completed nodes are spared: they have persisted the decoded
        content.  The newcomer keeps the crashed node's identity but
        starts with empty coding state.
        """
        if not self._incomplete:
            return
        incomplete = sorted(self._incomplete)
        victim = int(incomplete[self._fault_rng.integers(len(incomplete))])
        self.result.churn_events += 1
        if self._trace:
            self.tracer.event("churn", round=round_index, node=victim)
        # Fold the dying node's counters so its work is not forgotten.
        old = self.nodes[victim]
        recode = getattr(old, "recode_counter", None)
        decode = getattr(old, "decode_counter", None)
        if recode is not None:
            self.result.recode_ops.merge(recode)
        if decode is not None:
            self.result.decode_ops.merge(decode)
        self.nodes[victim] = self.coding_scheme.make_node(
            victim,
            self.k,
            payload_nbytes=self._payload_nbytes,
            n_nodes=self.n_nodes,
            rng=derive(
                self._node_rng_seed, "churn", victim, self.result.churn_events
            ),
            **self._node_kwargs,
        )
        self._data_received[victim] = 0
        self._sendable.discard(victim)

    def _execute_run(
        self,
        senders: list[SchemeNode],
        receiver_ids: list[int],
        round_index: int,
    ) -> None:
        """Execute one planned run of transfers, in order.

        Under the ``_plan_channel`` gate the run's loss draws are
        hoisted into one :meth:`ChannelModel.delivers_batch` call;
        otherwise each transfer draws its own channel outcomes inline.
        Session tracing emits one ``session`` event per transfer, read
        from counters and node state after the fact.
        """
        if self._plan_channel:
            prof = self.profiler
            t0 = perf_counter() if prof is not None else 0.0
            delivered = self.channel.delivers_batch(
                self._fault_rng,
                [int(getattr(sender, "node_id", -1)) for sender in senders],
                receiver_ids,
            )
            if prof is not None:
                prof.add("channel", perf_counter() - t0)
        else:
            delivered = repeat(None)
        transfer = self._transfer
        if not self._trace_sessions:
            for sender, receiver_id, ok in zip(senders, receiver_ids, delivered):
                transfer(sender, receiver_id, round_index, ok)
            return
        result = self.result
        for sender, receiver_id, ok in zip(senders, receiver_ids, delivered):
            aborted = result.aborted
            useful = result.useful_transfers
            transfer(sender, receiver_id, round_index, ok)
            self.tracer.event(
                "session",
                round=round_index,
                sender=int(getattr(sender, "node_id", -1)),
                receiver=receiver_id,
                aborted=result.aborted > aborted,
                useful=result.useful_transfers > useful,
                rank=node_rank(self.nodes[receiver_id]),
            )

    def step(self, round_index: int) -> None:
        """Run one gossip period under the v1 round plan.

        See ``ROUND_PLAN_VERSION`` for the pinned stream layout: the
        sources push first, then every sendable node pushes once, in a
        random permutation.  The permutation is executed in segmented
        maximal runs of senders that are already sendable when the run
        starts; monotone ``can_send`` guarantees run members would also
        pass their check at their own turn, and the blocker that ended a
        run is re-checked after the run's transfers before scanning
        resumes.  With a profiler, the churn draw is charged to
        ``channel`` and the target / permutation / peer draws to
        ``sampling``.
        """
        prof = self.profiler
        t0 = perf_counter() if prof is not None else 0.0
        churns = self.channel.churns(self._fault_rng, round_index)
        if prof is not None:
            prof.add("channel", perf_counter() - t0)
        if churns:
            self._churn(round_index)
        order_rng = self._order_rng
        n_nodes = self.n_nodes
        pushes = self.source_pushes
        t0 = perf_counter() if prof is not None else 0.0
        targets = order_rng.integers(
            n_nodes, size=len(self.sources) * pushes
        ).tolist()
        order = order_rng.permutation(n_nodes).tolist()
        if prof is not None:
            prof.add("sampling", perf_counter() - t0)
        self._execute_run(
            [source for source in self.sources for _ in range(pushes)],
            targets,
            round_index,
        )
        nodes = self.nodes
        sendable = self._sendable
        sampler = self.sampler
        pos = 0
        while pos < n_nodes:
            run: list[int] = []
            while pos < n_nodes:
                sender_id = order[pos]
                if sender_id in sendable:
                    run.append(sender_id)
                elif nodes[sender_id].can_send():
                    sendable.add(sender_id)
                    run.append(sender_id)
                else:
                    break
                pos += 1
            if run:
                t0 = perf_counter() if prof is not None else 0.0
                run_targets = sampler.peers_batch(run, round_index)
                if prof is not None:
                    prof.add("sampling", perf_counter() - t0)
                self._execute_run(
                    [nodes[sender_id] for sender_id in run],
                    run_targets,
                    round_index,
                )
            if pos < n_nodes:
                # The sender that ended the run: the run's transfers may
                # have made it sendable, exactly as it would observe at
                # its own turn in the permutation.
                sender_id = order[pos]
                pos += 1
                sender = nodes[sender_id]
                if sender.can_send():
                    sendable.add(sender_id)
                    t0 = perf_counter() if prof is not None else 0.0
                    target = sampler.peers(sender_id, 1, round_index)
                    if prof is not None:
                        prof.add("sampling", perf_counter() - t0)
                    self._execute_run([sender], target, round_index)
        self.result.record_round(round_index)

    def _trace_round(self, round_index: int) -> None:
        """Emit the per-round event (+ completion events) for tracing."""
        result = self.result
        prev = self._trace_prev
        ranks = [node_rank(node) for node in self.nodes]
        known = [r for r in ranks if r is not None]
        self.tracer.event(
            "round",
            round=round_index,
            completed=result.completed_count,
            sessions=result.sessions - prev["sessions"],
            aborted=result.aborted - prev["aborted"],
            useful=result.useful_transfers - prev["useful_transfers"],
            redundant=(
                result.redundant_transfers - prev["redundant_transfers"]
            ),
            lost=result.lost_transfers - prev["lost_transfers"],
            duplicated=(
                result.duplicated_transfers - prev["duplicated_transfers"]
            ),
            rank_total=sum(known) if known else None,
            rank_min=min(known) if known else None,
            rank_max=max(known) if known else None,
        )
        for key in prev:
            prev[key] = getattr(result, key)
        for node_id, completed_at in result.completion_rounds.items():
            if node_id not in self._trace_completed:
                self._trace_completed.add(node_id)
                self.tracer.event(
                    "complete", round=completed_at, node=node_id
                )

    def run(self) -> DisseminationResult:
        """Run rounds until every node decoded or the horizon is hit."""
        step = self.step
        tracer = self.tracer
        trace = self._trace
        result = self.result
        profiler = self.profiler
        spans = SpanRecorder(tracer) if trace else None
        if profiler is not None:
            # Refinement happens too deep inside LTNC recoding for the
            # simulator to bracket; charge it through the module hook.
            set_refine_profiler(profiler)
        try:
            if spans is not None:
                spans.begin("run", scheme=self.scheme)
            for round_index in range(self.max_rounds):
                step(round_index)
                if trace:
                    self._trace_round(round_index)
                if result.all_complete:
                    break
            if spans is not None:
                with spans.wrap("collect"):
                    self._collect_counters()
                spans.end(rounds=result.rounds)
            else:
                self._collect_counters()
            if self.metrics is not None:
                self._record_telemetry()
            if trace:
                tracer.counter("sessions", result.sessions)
                tracer.counter("aborted", result.aborted)
                tracer.counter("data_transfers", result.data_transfers)
                tracer.counter("churn_events", result.churn_events)
                if profiler is not None:
                    tracer.event("phases", phases=profiler.snapshot())
        finally:
            if profiler is not None:
                set_refine_profiler(None)
            tracer.close()
        return result

    # ------------------------------------------------------------------
    def _collect_counters(self) -> None:
        """Fold every node's operation counters into the result."""
        for node in self.nodes:
            recode = getattr(node, "recode_counter", None)
            decode = getattr(node, "decode_counter", None)
            if recode is not None:
                self.result.recode_ops.merge(recode)
            if decode is not None:
                self.result.decode_ops.merge(decode)

    def _record_telemetry(self) -> None:
        """Fold the finished run into the trial's metrics collector.

        Pure result-state reads — deterministic given (scheme, seed),
        so the merged fleet telemetry stays worker- and shard-count
        invariant.  Runs after :meth:`_collect_counters` so the op
        counters are complete.
        """
        m = self.metrics
        result = self.result
        m.label("kind", "epidemic")
        m.label("scheme", self.scheme)
        m.count("rounds", result.rounds)
        m.count("nodes", self.n_nodes)
        m.count("completed_nodes", result.completed_count)
        m.count("sessions", result.sessions)
        m.count("aborted", result.aborted)
        m.count("data_transfers", result.data_transfers)
        m.count("useful_transfers", result.useful_transfers)
        m.count("redundant_transfers", result.redundant_transfers)
        m.count("lost_transfers", result.lost_transfers)
        m.count("duplicated_transfers", result.duplicated_transfers)
        m.count("churn_events", result.churn_events)
        m.count("recoded_packets", result.recoded_packets)
        for op, value in sorted(result.recode_ops.counts.items()):
            m.count(f"ops:recode:{op}", value)
        for op, value in sorted(result.decode_ops.counts.items()):
            m.count(f"ops:decode:{op}", value)
        m.gauge("completed_fraction", result.completed_fraction())
        m.gauge("abort_rate", result.abort_rate())
        for node_id in sorted(result.completion_rounds):
            m.observe(
                "completion_round",
                result.completion_rounds[node_id],
                boundaries=ROUND_BOUNDARIES,
            )
            m.observe(
                "data_until_complete",
                result.data_until_complete.get(node_id, self.k),
                boundaries=VOLUME_BOUNDARIES,
            )


def run_dissemination(
    scheme: str | CodingScheme,
    n_nodes: int,
    k: int,
    **kwargs: object,
) -> DisseminationResult:
    """Convenience one-shot wrapper around :class:`EpidemicSimulator`."""
    return EpidemicSimulator(scheme, n_nodes, k, **kwargs).run()  # type: ignore[arg-type]
