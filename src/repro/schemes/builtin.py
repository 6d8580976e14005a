"""Built-in scheme descriptors: WC, RLNC, LTNC, rndlt, sparse RLNC.

Importing :mod:`repro.schemes` registers the paper's three evaluation
schemes (§IV-A), the structure-destroying ``rndlt`` baseline (§V) and
the density-limited ``sparse_rlnc`` variant.  Each descriptor bundles
the node/source factories, the capability flags, the typed knob schema
for spec-time validation, the per-scheme experiment defaults and —
where the paper measures cycles — the Figure-8 cost probe.

The factories reproduce the pre-registry scheme wiring bit-for-bit:
rng wrapping, constructor argument order and the ``derive`` labels of
the cost probes are unchanged, so seeds keep producing byte-identical
streams across the registry refactor (the ``tests/test_schemes.py``
guard pins this).
"""

from __future__ import annotations

from repro.coding.packet import native_payloads, receive_natives
from repro.core.node import LtncNode
from repro.lt.distributions import RobustSoliton
from repro.lt.encoder import LTEncoder
from repro.rlnc.node import RlncNode
from repro.rlnc.sparse import DEFAULT_DENSITY, SparseRlncNode
from repro.rng import derive
from repro.schemes.descriptor import CodingScheme, CostProbe, Knob
from repro.schemes.registry import register_scheme
from repro.wc.node import WcNode, default_fanout

__all__ = [
    "WARM_FILL",
    "LTNC_AGGRESSIVENESS",
    "WC",
    "RLNC",
    "LTNC",
    "RNDLT",
    "SPARSE_RLNC",
]

#: §IV-A: aggressiveness tuned so completion time is minimised,
#: "typically 1 %" — the experiment-level default for LTNC-family nodes.
LTNC_AGGRESSIVENESS = 0.01

#: Fraction of k innovative packets a "warm" node holds when recoding
#: costs are sampled — a node in the thick of the dissemination.
WARM_FILL = 0.9


# ----------------------------------------------------------------------
# Node / source factories (signatures fixed by CodingScheme)
# ----------------------------------------------------------------------
def _wc_node(node_id, k, payload_nbytes, n_nodes, rng, **kwargs):
    # An explicit None (JSON null) means "contextual default" too, so
    # setdefault alone would leak None into WcNode's range check.
    if kwargs.get("fanout") is None:
        kwargs["fanout"] = default_fanout(n_nodes)
    return WcNode(node_id, k, rng=rng, payload_nbytes=payload_nbytes, **kwargs)


def _wc_source(k, content, rng, **kwargs):
    return WcNode.as_source(k, content, rng=rng, **kwargs)


def _rlnc_node(node_id, k, payload_nbytes, n_nodes, rng, **kwargs):
    return RlncNode(node_id, k, payload_nbytes=payload_nbytes, rng=rng, **kwargs)


def _rlnc_source(k, content, rng, **kwargs):
    return RlncNode.as_source(k, content, rng=rng, **kwargs)


def _ltnc_node(node_id, k, payload_nbytes, n_nodes, rng, **kwargs):
    return LtncNode(node_id, k, payload_nbytes=payload_nbytes, rng=rng, **kwargs)


def _ltnc_source(k, content, rng, **kwargs):
    return LtncNode.as_source(k, content, rng=rng, **kwargs)


def _rndlt_node(node_id, k, payload_nbytes, n_nodes, rng, **kwargs):
    from repro.baselines.random_recode import RandomRecodeNode

    return RandomRecodeNode(
        node_id, k, payload_nbytes=payload_nbytes, rng=rng, **kwargs
    )


def _rndlt_source(k, content, rng, **kwargs):
    # The source holds all natives; even the structure-destroying
    # baseline gets a proper LT-encoded feed from it (its recoding
    # from k decoded natives degenerates to uniform combinations,
    # which is exactly the baseline's point).
    from repro.baselines.random_recode import RandomRecodeNode

    natives = native_payloads(content, k)
    m = natives.nbytes if natives is not None else None
    node = RandomRecodeNode(-1, k, payload_nbytes=m, rng=rng, **kwargs)
    receive_natives(node, k, natives)
    return node


def _sparse_rlnc_node(node_id, k, payload_nbytes, n_nodes, rng, **kwargs):
    return SparseRlncNode(
        node_id, k, payload_nbytes=payload_nbytes, rng=rng, **kwargs
    )


def _sparse_rlnc_source(k, content, rng, **kwargs):
    return SparseRlncNode.as_source(k, content, rng=rng, **kwargs)


# ----------------------------------------------------------------------
# Figure-8 cost probes (derive labels unchanged from the fig8 harness)
# ----------------------------------------------------------------------
def _fill(node, next_packet, k: int):
    """Feed a node until it holds WARM_FILL of k innovative packets."""
    target = max(2, int(WARM_FILL * k))
    while node.innovative_count < target:
        node.receive(next_packet())
    return node


def _warm_ltnc(k: int, seed: int) -> LtncNode:
    """An LTNC node mid-dissemination (WARM_FILL of k packets held)."""
    encoder = LTEncoder(k, RobustSoliton(k), rng=derive(seed, "warm-enc", k))
    node = LtncNode(0, k, rng=derive(seed, "warm-ltnc", k))
    return _fill(node, encoder.next_packet, k)


def _ltnc_decode_stream(k: int, seed: int):
    encoder = LTEncoder(k, RobustSoliton(k), rng=derive(seed, "dec-enc", k))
    node = LtncNode(0, k, rng=derive(seed, "dec-ltnc", k))
    return node, encoder.next_packet


def _warm_rlnc(k: int, seed: int) -> RlncNode:
    """An RLNC node mid-dissemination (WARM_FILL of k packets held)."""
    source = RlncNode.as_source(k, rng=derive(seed, "warm-src", k))
    node = RlncNode(0, k, rng=derive(seed, "warm-rlnc", k))
    return _fill(node, source.make_packet, k)


def _rlnc_decode_stream(k: int, seed: int):
    source = RlncNode.as_source(k, rng=derive(seed, "dec-src", k))
    node = RlncNode(0, k, rng=derive(seed, "dec-rlnc", k))
    return node, source.make_packet


def _warm_sparse_rlnc(k: int, seed: int) -> SparseRlncNode:
    source = SparseRlncNode.as_source(k, rng=derive(seed, "warm-sparse-src", k))
    node = SparseRlncNode(0, k, rng=derive(seed, "warm-sparse", k))
    return _fill(node, source.make_packet, k)


def _sparse_rlnc_decode_stream(k: int, seed: int):
    source = SparseRlncNode.as_source(k, rng=derive(seed, "dec-sparse-src", k))
    node = SparseRlncNode(0, k, rng=derive(seed, "dec-sparse", k))
    return node, source.make_packet


# ----------------------------------------------------------------------
# Shared knob schemas
# ----------------------------------------------------------------------
_LTNC_KNOBS = (
    Knob(
        "aggressiveness",
        float,
        default=LTNC_AGGRESSIVENESS,
        minimum=0.0,
        maximum=1.0,
        help="fraction of k innovative packets held before recoding (§IV-A)",
    ),
    Knob("refine", bool, default=True, help="Algorithm 2 refinement"),
    Knob(
        "detect_redundancy",
        bool,
        default=True,
        help="Algorithm 3 storage-side redundancy filter",
    ),
    Knob(
        "max_degree_retries",
        int,
        default=64,
        minimum=1,
        help="re-draws of an unreachable Robust Soliton degree",
    ),
)


# ----------------------------------------------------------------------
# The built-in descriptors, registered in the historic SCHEMES order
# ----------------------------------------------------------------------
WC = register_scheme(
    CodingScheme(
        name="wc",
        summary="uncoded epidemic forwarding of native packets (§IV-A)",
        node_factory=_wc_node,
        source_factory=_wc_source,
        recodes=False,
        exact_innovation_check=True,
        knobs=(
            Knob(
                "buffer_size",
                int,
                default=None,
                allow_none=True,
                minimum=1,
                help="natives kept for forwarding (default: k)",
            ),
            Knob(
                "fanout",
                int,
                default=None,
                allow_none=True,
                minimum=1,
                help="forwarding target per native (default: ceil(ln N))",
            ),
        ),
    )
)

RLNC = register_scheme(
    CodingScheme(
        name="rlnc",
        summary="sparse random linear network coding over GF(2) (§IV-A)",
        node_factory=_rlnc_node,
        source_factory=_rlnc_source,
        exact_innovation_check=True,
        knobs=(
            Knob(
                "sparsity",
                int,
                default=None,
                allow_none=True,
                minimum=1,
                help="packets combined per recode (default: ln k + 20)",
            ),
        ),
        cost_probe=CostProbe(
            warm=_warm_rlnc, decode_stream=_rlnc_decode_stream
        ),
    )
)

LTNC = register_scheme(
    CodingScheme(
        name="ltnc",
        summary="LT network codes: structure-preserving recoding (§III)",
        node_factory=_ltnc_node,
        source_factory=_ltnc_source,
        supports_full_feedback=True,
        supports_generations=True,
        knobs=_LTNC_KNOBS,
        default_node_kwargs={"aggressiveness": LTNC_AGGRESSIVENESS},
        cost_probe=CostProbe(
            warm=_warm_ltnc, decode_stream=_ltnc_decode_stream
        ),
    )
)

RNDLT = register_scheme(
    CodingScheme(
        name="rndlt",
        summary="structure-destroying random recoding of LT packets (§V)",
        node_factory=_rndlt_node,
        source_factory=_rndlt_source,
        knobs=_LTNC_KNOBS
        + (
            Knob(
                "combine",
                int,
                default=None,
                allow_none=True,
                minimum=1,
                help="max held items XOR-ed per recode (default: ln k + 20)",
            ),
        ),
        default_node_kwargs={"aggressiveness": LTNC_AGGRESSIVENESS},
    )
)

SPARSE_RLNC = register_scheme(
    CodingScheme(
        name="sparse_rlnc",
        summary="RLNC with density-limited coding vectors (<= density * k)",
        node_factory=_sparse_rlnc_node,
        source_factory=_sparse_rlnc_source,
        exact_innovation_check=True,
        knobs=(
            Knob(
                "density",
                float,
                default=DEFAULT_DENSITY,
                minimum=0.0,
                maximum=1.0,
                exclusive_min=True,
                help="fraction of k each recoded combination may touch",
            ),
        ),
        default_node_kwargs={"density": DEFAULT_DENSITY},
        cost_probe=CostProbe(
            warm=_warm_sparse_rlnc,
            decode_stream=_sparse_rlnc_decode_stream,
        ),
    )
)
