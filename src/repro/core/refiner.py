"""Algorithm 2 — refining a fresh encoded packet (§III-B3).

Refinement lowers the variance of native-packet degrees across the
packets a node sends.  For each native ``x`` in the freshly built
packet ``z``, it looks for a replacement ``x'`` such that:

1. ``x ~ x'`` — the degree-2 packet ``x ^ x'`` is generable from
   decoded natives and stored degree-2 packets (same connected
   component);
2. ``x'`` appeared in strictly fewer previously sent packets;
3. ``x'`` is not already in the packet (the substitution must not
   change the degree).

Among the eligible candidates the *least frequent* one is substituted:
``z ^= (x ^ x')`` flips exactly the bits of ``x`` and ``x'``.  The
payload of ``x ^ x'`` is materialized by XOR-ing the stored degree-2
packets along a component path (or the two decoded values when both
natives are decoded).

Candidate search walks the occurrence buckets from the global minimum
upward, so the first native satisfying (1) and (3) in the lowest
non-empty bucket below ``frequency(x)`` *is* the argmin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coding.packet import xor_payloads
from repro.core.components import DECODED_LEADER, ConnectedComponents
from repro.core.occurrences import OccurrenceTracker
from repro.costmodel.counters import OpCounter
from repro.lt.tanner import TannerGraph

__all__ = ["RefineResult", "refine_packet", "pair_payload"]


@dataclass
class RefineResult:
    """Outcome of one Algorithm-2 run over a built packet."""

    support: set[int]
    payload: int | None
    substitutions: list[tuple[int, int]] = field(default_factory=list)
    candidates_examined: int = 0

    @property
    def degree(self) -> int:
        return len(self.support)


def _find_replacement(
    x: int,
    support: set[int],
    components: ConnectedComponents,
    occurrences: OccurrenceTracker,
) -> tuple[int | None, int, int, int]:
    """Least-frequent native ``x' ~ x`` with ``freq < freq(x)``, not in z.

    Returns ``(replacement, examined, occ_table_ops, leader_lookups)``,
    with ``replacement`` ``None`` when no native satisfies all three
    conditions.  The charges are returned rather than added so the
    caller lands one batched add per counter for the whole Algorithm-2
    loop:

    * ``examined`` — one ``cc_lookup`` per candidate compared, in
      bucket order, until the first hit;
    * ``occ_table_ops`` — the ``frequency(x)`` probe plus one
      ``table_op`` per count visited: everything in ``[min, count]``
      (or ``[min, freq(x))`` on a miss), empty counts included;
    * ``leader_lookups`` — the one ``leader(x)`` read.

    Component membership is tested through the leader's member set
    (``cc[c] == leader`` iff ``c in members[leader]``, the invariant
    ``ConnectedComponents.check_invariants`` pins), and a bucket with
    no member of the component is charged whole without being walked.
    """
    freq_x = occurrences._counts[x]
    min_count = occurrences._min_count
    if freq_x <= min_count:
        return None, 0, 1, 0  # nothing can be strictly less frequent
    leader = int(components.cc[x])
    if leader == DECODED_LEADER:
        members: set[int] = components._decoded
    else:
        members = components._members[leader]
    buckets = occurrences._buckets
    cache = occurrences._bucket_cache
    examined = 0
    for count in occurrences.nonempty_counts():
        if count >= freq_x:
            break
        bucket = buckets[count]
        if members.isdisjoint(bucket):
            examined += len(bucket)
            continue
        ordered = cache.get(count)
        if ordered is None:
            ordered = occurrences.bucket_tuple(count)
        for candidate in ordered:
            examined += 1
            if candidate in members and candidate not in support:
                return candidate, examined, count - min_count + 2, 1
    return None, examined, freq_x - min_count + 1, 1


def _pair_payload(
    x: int,
    y: int,
    components: ConnectedComponents,
    graph: TannerGraph,
) -> tuple[int | None, int]:
    """Payload of ``x ^ y`` and the number of payload XORs it took."""
    if int(components.cc[x]) == DECODED_LEADER:
        return xor_payloads(graph.decoded[x], graph.decoded[y]), 1
    pids = components.path_pids(x, y)
    packets = graph.packets
    combined: int | None = None
    for pid in pids:
        p = packets[pid].payload
        if p is not None:
            combined = p if combined is None else combined ^ p
    return combined, len(pids)


def pair_payload(
    x: int,
    y: int,
    components: ConnectedComponents,
    graph: TannerGraph,
    counter: OpCounter,
) -> int | None:
    """Payload of ``x ^ y`` for two equivalent natives (``x ~ y``).

    Decoded pairs combine their decoded values; undecoded pairs XOR the
    stored degree-2 packets along a component path (telescoping to
    ``x ^ y``).  Every XOR is a data-plane operation and is counted,
    in one add per call.  Also used by the Algorithm-4 smart
    construction to materialize its degree-2 packets.
    """
    payload, xors = _pair_payload(x, y, components, graph)
    counter.add("payload_xor", xors)
    return payload


def refine_packet(
    support: set[int],
    payload: int | None,
    components: ConnectedComponents,
    occurrences: OccurrenceTracker,
    graph: TannerGraph,
    counter: OpCounter | None = None,
) -> RefineResult:
    """Apply Algorithm 2 to a freshly built packet.

    The input ``support`` is consumed (mutated in place); the payload
    is rebound to ``payload ^ pair`` per substitution.  The degree
    never changes — a class of invariants the property tests pin down.

    The per-native charges of :func:`_find_replacement` land after the
    loop, one add per counter, on the counters that own them: the
    tracker's counter for bucket/frequency ``table_op``, the components'
    counter for the leader lookups (the decode counter on an LTNC node),
    and *counter* for the per-candidate ``cc_lookup`` examinations and
    the substitutions' vector and payload XORs.
    """
    counter = counter if counter is not None else OpCounter()
    result = RefineResult(support=support, payload=payload)
    occ_ops = 0
    leader_lookups = 0
    payload_xors = 0
    # Iterate the *original* members in index order (the paper's worked
    # example processes natives by increasing index); substituted-in
    # natives are not re-examined, but they do block later substitutions
    # through the "not in z'" condition, exactly as in Algorithm 2.
    for x in sorted(support):
        if x not in support:
            continue  # already substituted away by an earlier step
        before = len(support)
        replacement, examined, table_ops, lookups = _find_replacement(
            x, support, components, occurrences
        )
        result.candidates_examined += examined
        occ_ops += table_ops
        leader_lookups += lookups
        if replacement is None:
            continue
        pair, xors = _pair_payload(x, replacement, components, graph)
        support.discard(x)
        support.add(replacement)
        result.payload = xor_payloads(result.payload, pair)
        payload_xors += xors + 1
        result.substitutions.append((x, replacement))
        assert len(support) == before, "substitution changed the degree"
    occurrences.counter.add("table_op", occ_ops)
    components.counter.add("cc_lookup", leader_lookups)
    counter.add("cc_lookup", result.candidates_examined)
    n_subs = len(result.substitutions)
    counter.add("vec_word_xor", n_subs * ((components.k + 63) >> 6))
    counter.add("payload_xor", payload_xors)
    return result
