"""The int payload boundary: content in, decoded content out, width checks.

Payloads are m-byte little-endian ints everywhere inside the coding
layers (:mod:`repro.coding.packet`).  An int XOR cannot notice a width
mismatch, so these tests pin the checks that replace numpy's shape
check: bad content is rejected where it enters (simulator, source,
cluster, encoder) and an over-wide payload is rejected where a node
receives it.  They also pin that every registered scheme hands back a
(k, m) uint8 matrix from ``decoded_content()``.
"""

import numpy as np
import pytest

from repro.coding.packet import EncodedPacket, make_content
from repro.errors import DimensionError
from repro.gf2.bitvec import BitVector
from repro.gossip.simulator import EpidemicSimulator
from repro.lt.distributions import RobustSoliton
from repro.lt.encoder import LTEncoder
from repro.schemes import available_schemes, resolve
from repro.storage.cluster import StorageCluster

K, M = 8, 3

BAD_CONTENT = [
    np.zeros((K, M), dtype=np.int32),
    np.zeros(K * M, dtype=np.uint8),
    np.zeros((K, M, 1), dtype=np.uint8),
    np.zeros((K + 1, M), dtype=np.uint8),
]


@pytest.mark.parametrize("bad", BAD_CONTENT, ids=lambda a: f"{a.dtype}{a.shape}")
def test_simulator_rejects_bad_content(bad):
    with pytest.raises(DimensionError, match="shape"):
        EpidemicSimulator("ltnc", 4, K, content=bad, seed=0)


@pytest.mark.parametrize("scheme", available_schemes())
@pytest.mark.parametrize("bad", BAD_CONTENT, ids=lambda a: f"{a.dtype}{a.shape}")
def test_every_source_rejects_bad_content(scheme, bad):
    with pytest.raises(DimensionError, match="shape"):
        resolve(scheme).make_source(K, bad, rng=0)


@pytest.mark.parametrize("bad", BAD_CONTENT, ids=lambda a: f"{a.dtype}{a.shape}")
def test_encoder_and_cluster_reject_bad_content(bad):
    with pytest.raises(DimensionError, match="shape"):
        LTEncoder(K, RobustSoliton(K), payloads=bad, rng=0)
    with pytest.raises(DimensionError, match="shape"):
        StorageCluster(K, 4, content=bad, rng=0)


@pytest.mark.parametrize("scheme", available_schemes())
def test_nodes_reject_over_wide_payloads(scheme):
    node = resolve(scheme).make_node(0, K, payload_nbytes=M, n_nodes=4, rng=1)
    fits = EncodedPacket(BitVector.from_indices(K, [0]), (1 << 8 * M) - 1)
    node.receive(fits)
    wide = EncodedPacket(BitVector.from_indices(K, [1]), 1 << 8 * M)
    with pytest.raises(DimensionError):
        node.receive(wide)


@pytest.mark.parametrize("scheme", available_schemes())
def test_decoded_content_is_a_uint8_matrix_for_every_scheme(scheme):
    content = make_content(K, M, rng=2)
    # High-zero and all-zero rows are where an int layout could drop bytes.
    content[0] = 0
    content[1, 1:] = 0
    source = resolve(scheme).make_source(K, content, rng=3)
    out = source.decoded_content()
    assert out.dtype == np.uint8 and out.shape == (K, M)
    assert out.tobytes() == content.tobytes()


@pytest.mark.parametrize("scheme", ["ltnc", "rlnc", "wc", "sparse_rlnc"])
def test_disseminated_content_decodes_byte_exact(scheme):
    content = make_content(K, M, rng=4)
    content[2] = 0
    sim = EpidemicSimulator(scheme, 4, K, content=content, seed=5)
    result = sim.run()
    assert result.all_complete
    for node in sim.nodes:
        out = node.decoded_content()
        assert out.dtype == np.uint8 and out.shape == (K, M)
        assert out.tobytes() == content.tobytes()
