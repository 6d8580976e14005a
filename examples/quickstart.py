#!/usr/bin/env python3
"""Quickstart: LT-encode a file, recode it mid-network, decode with BP.

The three moving parts of the paper in thirty lines:

1. a source LT-encodes content (Robust Soliton degrees);
2. an intermediary LTNC node *recodes* fresh encoded packets from the
   encoded packets it received — without decoding first, and while
   preserving the LT structure (the paper's contribution);
3. a receiver decodes with belief propagation — no Gaussian reduction.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BeliefPropagationDecoder, LTEncoder, RobustSoliton
from repro.coding import content_blocks, make_content
from repro.core import LtncNode

K = 64          # native packets
M = 128         # bytes per packet


def main() -> None:
    rng = np.random.default_rng(2010)

    # -- the content: here random bytes; content_blocks() splits files.
    content = make_content(K, M, rng=rng)
    demo = content_blocks(b"any bytes work too", K)
    assert demo.shape[0] == K

    # -- 1. the source encodes with classic LT codes.
    source = LTEncoder(K, RobustSoliton(K), payloads=content, rng=rng)

    # -- 2. an intermediary node receives *some* encoded packets...
    relay = LtncNode(node_id=1, k=K, payload_nbytes=M, rng=rng)
    for _ in range(int(0.8 * K)):
        relay.receive(source.next_packet())
    print(f"relay state: {relay.decoded_count}/{K} natives decoded, "
          f"{relay.decoder.graph.stored_count} encoded packets stored")

    # ...and recodes *fresh* LT-structured packets from them.
    fresh = [relay.make_packet() for _ in range(6)]
    print("degrees of recoded packets:", [p.degree for p in fresh],
          "(drawn from the Robust Soliton)")

    # -- 3. a receiver decodes the mixed stream with belief propagation.
    sink = BeliefPropagationDecoder(K, payload_nbytes=M)
    received = 0
    while not sink.is_complete():
        sink.receive(relay.make_packet() if received % 3 == 0
                     else source.next_packet())
        received += 1
    recovered = sink.recovered_content()

    assert np.array_equal(recovered, content)
    print(f"receiver decoded all {K} packets bit-for-bit "
          f"from {received} encoded packets "
          f"(overhead {(received - K) / K:.0%}) — no Gaussian reduction.")


if __name__ == "__main__":
    main()
