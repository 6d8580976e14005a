"""Differential tests: numpy multi-row kernel vs int kernel vs reference.

:class:`repro.gf2.batch.BatchRref` claims *zero* behavior change
against both the int-backed :class:`~repro.gf2.matrix.IncrementalRref`
and the original numpy-words implementation preserved in
``repro.gf2.reference`` — same residuals, same basis, same payload
algebra, and identical :class:`OpCounter` totals (the cost-model
contract the Figure-8 benches rely on).  These tests make the claim
executable two ways:

* hypothesis drives random insert / reduce / is_innovative sequences
  through all three kernels in lock-step;
* :func:`make_rref` heuristic selection is pinned (int kernel below
  :data:`BATCH_RREF_MIN_COLS`, numpy at or above, explicit overrides).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2 import BATCH_RREF_MIN_COLS, BatchRref, IncrementalRref, make_rref
from repro.gf2.bitvec import BitVector
from repro.gf2.reference import ReferenceBitVector, ReferenceRref


def _triple(ncols, nbytes):
    counters = (OpCounter(), OpCounter(), OpCounter())
    return (
        IncrementalRref(ncols, payload_nbytes=nbytes, counter=counters[0]),
        BatchRref(ncols, payload_nbytes=nbytes, counter=counters[1]),
        ReferenceRref(ncols, payload_nbytes=nbytes, counter=counters[2]),
        counters,
    )


def _random_vec(rng, ncols):
    d = int(rng.integers(1, ncols + 1))
    cols = rng.choice(ncols, size=d, replace=False).tolist()
    return (
        BitVector.from_indices(ncols, cols),
        ReferenceBitVector.from_indices(ncols, cols),
    )


def _ref_int(ref_vec):
    return int.from_bytes(ref_vec.key(), "little")


# ----------------------------------------------------------------------
# Three-way op sequences
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    ncols=st.integers(1, 150),
    nbytes=st.sampled_from([None, 8]),
    seed=st.integers(0, 2**31),
    n_ops=st.integers(1, 80),
)
def test_op_sequences_match_int_and_reference(ncols, nbytes, seed, n_ops):
    rng = np.random.default_rng(seed)
    a, b, r, (ca, cb, cr) = _triple(ncols, nbytes)
    for _ in range(n_ops):
        vec, rvec = _random_vec(rng, ncols)
        payload = (
            rng.integers(0, 256, size=nbytes, dtype=np.uint8)
            if nbytes
            else None
        )
        op = int(rng.integers(0, 3))
        if op == 0:
            outs = {
                a.insert(vec, None if payload is None else payload.copy()),
                b.insert(vec, None if payload is None else payload.copy()),
                r.insert(rvec, None if payload is None else payload.copy()),
            }
            assert len(outs) == 1
        elif op == 1:
            xa, pa = a.reduce(vec, payload)
            xb, pb = b.reduce(vec, payload)
            xr, pr = r.reduce(rvec, payload)
            assert xa.key() == xb.key() == xr.key()
            if payload is not None:
                assert np.array_equal(pa, pb)
                assert np.array_equal(pa, pr)
        else:
            outs = {
                a.is_innovative(vec),
                b.is_innovative(vec),
                r.is_innovative(rvec),
            }
            assert len(outs) == 1
        assert a.rank == b.rank == r.rank
        assert a.pivot_columns() == b.pivot_columns()
        assert [v.key() for v in a.basis_rows()] == [
            v.key() for v in b.basis_rows()
        ]
        assert ca.counts == cb.counts, "numpy kernel drifted from int"
        assert ca.counts == cr.counts, "int kernel drifted from reference"
    if a.is_full_rank() and nbytes:
        assert all(
            np.array_equal(x, y) for x, y in zip(a.decode(), b.decode())
        )


def test_full_rank_decode_matches_int_kernel():
    ncols, nbytes = 96, 16
    rng = np.random.default_rng(5)
    a, b, _, (ca, cb, _) = _triple(ncols, nbytes)
    while not a.is_full_rank():
        vec, _rv = _random_vec(rng, ncols)
        payload = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        assert a.insert(vec, payload.copy()) == b.insert(vec, payload.copy())
    assert b.is_full_rank()
    assert ca.counts == cb.counts
    for x, y in zip(a.decode(), b.decode()):
        assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# make_rref heuristic + validation
# ----------------------------------------------------------------------
def test_make_rref_picks_kernel_by_code_length():
    assert isinstance(make_rref(BATCH_RREF_MIN_COLS - 1), IncrementalRref)
    assert isinstance(make_rref(BATCH_RREF_MIN_COLS), BatchRref)
    assert isinstance(make_rref(64, backend="numpy"), BatchRref)
    assert isinstance(make_rref(4096, backend="int"), IncrementalRref)
    with pytest.raises(DimensionError):
        make_rref(64, backend="gpu")


def test_make_rref_threads_payload_and_counter():
    counter = OpCounter()
    r = make_rref(2048, payload_nbytes=32, counter=counter, backend="numpy")
    assert r.counter is counter
    assert r.payload_nbytes == 32
    assert r.ncols == 2048


def test_batch_rref_validation():
    with pytest.raises(DimensionError):
        BatchRref(0)
    r = BatchRref(8, payload_nbytes=4)
    with pytest.raises(DimensionError):
        r.insert(BitVector.from_indices(9, [0]))
    with pytest.raises(DimensionError):
        r.insert(BitVector.from_indices(8, [0]), np.zeros(5, dtype=np.uint8))
    with pytest.raises(DecodingError):
        r.decode()
    sym = BatchRref(1)
    sym.insert(BitVector.from_indices(1, [0]))
    with pytest.raises(DecodingError):
        sym.decode()  # symbolic mode: no payloads
