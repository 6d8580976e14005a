"""Numpy multi-row GF(2) elimination for large code lengths.

The int-backed :class:`~repro.gf2.matrix.IncrementalRref` wins for the
paper's default code lengths (one Python big-int XOR per elementary row
operation beats numpy's per-call overhead up to roughly a thousand
columns), but its insertion path walks Python loops whose iteration
count grows with the rank: the back-substitution visits every basis row
per insert, and the forward reduction XORs rows one at a time.  At the
paper-scale profile (``k = 2048``) those loops dominate RLNC decoding.

:class:`BatchRref` stores the basis as one contiguous ``uint64``
word-matrix and turns both loops into single vectorised operations:

* **forward elimination** — the basis is kept in *reduced* echelon
  form, so a basis row never carries another row's pivot column.
  XOR-ing basis rows into an incoming vector therefore never changes
  the vector's bits at other pivot columns, which means the full set of
  rows to eliminate is known up front (the pivot columns where the
  vector has a one) and the elimination collapses to one
  ``np.bitwise_xor.reduce`` over a row block;
* **back-substitution** — the rows holding the new pivot column are
  found with one shifted-column probe and cleared with one
  fancy-indexed block XOR.

The partial-reduction semantics of ``IncrementalRref.reduce`` (stop at
the first non-pivot lead) are reproduced exactly: with ``y_full`` the
fully eliminated vector, the sequential walk provably stops at
``lsb(y_full)`` having XOR-ed exactly the hit rows with pivot below
that lead, so the walk's residual — and its per-step ``OpCounter``
charges — can be reconstructed without running it.  The differential
tests drive random operation sequences through this kernel, the int
kernel and ``repro.gf2.reference`` and assert identical results *and*
identical counter totals.

:func:`make_rref` picks the kernel per code length: the int kernel
below :data:`BATCH_RREF_MIN_COLS` columns, this one at or above (the
paper-scale profile's ``k = 2048`` lands here).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import IncrementalRref, check_payload

__all__ = ["BATCH_RREF_MIN_COLS", "BatchRref", "make_rref"]

#: Columns at which :func:`make_rref` switches from the int kernel to
#: :class:`BatchRref`.  Calibrated by the perfbench large-k microbench:
#: below this the per-call numpy overhead loses to Python big-int XORs,
#: above it the vectorised block operations win.
BATCH_RREF_MIN_COLS = 1024


def _vec_to_words(vec: BitVector, nwords: int) -> np.ndarray:
    """Little-endian ``uint64`` words of a :class:`BitVector`."""
    return np.frombuffer(
        vec._x.to_bytes(nwords * 8, "little"), dtype=np.uint64
    )


def _words_to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), "little")


def _first_bit(words: np.ndarray) -> int:
    """Index of the lowest set bit, or -1 when all words are zero."""
    nz = np.flatnonzero(words)
    if nz.size == 0:
        return -1
    w = int(nz[0])
    word = int(words[w])
    return (w << 6) + ((word & -word).bit_length() - 1)


class BatchRref:
    """Word-matrix RREF basis with vectorised multi-row elimination.

    Drop-in replacement for :class:`~repro.gf2.matrix.IncrementalRref`
    (same constructor, queries, ``reduce``/``insert``/``decode`` and
    counter charges).  Payloads are ints at the interface, like
    everywhere else; this kernel keeps them as rows of one uint8 matrix
    and converts at ``reduce``, ``insert`` and ``decode``.
    """

    def __init__(
        self,
        ncols: int,
        payload_nbytes: int | None = None,
        counter: OpCounter | None = None,
    ) -> None:
        if ncols <= 0:
            raise DimensionError(f"ncols must be positive, got {ncols}")
        self.ncols = ncols
        self.payload_nbytes = payload_nbytes
        self.counter = counter if counter is not None else OpCounter()
        self._nwords = (ncols + 63) >> 6
        self._basis = np.zeros((ncols, self._nwords), dtype=np.uint64)
        self._payload_rows = (
            np.zeros((ncols, payload_nbytes), dtype=np.uint8)
            if payload_nbytes is not None
            else None
        )
        self._rank = 0
        # Pivot bookkeeping: per-column row position (-1 = free) and the
        # pivot columns as a word mask for one-AND hit detection.
        self._row_of_col = np.full(ncols, -1, dtype=np.int64)
        self._pivot_mask = np.zeros(self._nwords, dtype=np.uint64)
        self._pivot_cols: list[int] = []

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Current rank of the inserted rows."""
        return self._rank

    def is_full_rank(self) -> bool:
        """True iff the basis spans the whole space."""
        return self._rank == self.ncols

    def basis_rows(self) -> list[BitVector]:
        """Copies of the current pivot rows (reduced echelon form)."""
        return [
            BitVector._from_int(self.ncols, _words_to_int(self._basis[i]))
            for i in range(self._rank)
        ]

    def pivot_columns(self) -> list[int]:
        """Pivot column of each basis row, in insertion order."""
        return list(self._pivot_cols)

    # ------------------------------------------------------------------
    def _hit_columns(self, words: np.ndarray) -> np.ndarray:
        """Ascending pivot columns where *words* has a one."""
        masked = np.bitwise_and(words, self._pivot_mask)
        if not masked.any():
            return np.empty(0, dtype=np.int64)
        bits = np.unpackbits(masked.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits)

    def _payload_row(self, payload: int) -> np.ndarray:
        """An int payload as a writable uint8 row."""
        return np.frombuffer(
            bytearray(payload.to_bytes(self.payload_nbytes, "little")),
            dtype=np.uint8,
        )

    def _reduce_words(
        self, words: np.ndarray, payload: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None, int, int]:
        """Partial reduction of one word row; returns charges unapplied.

        Returns ``(residual_words, residual_payload, n_lookups,
        n_xors)`` replicating the sequential lead walk: rows are
        eliminated for every pivot hit below the first non-pivot lead of
        the *fully* eliminated vector (see module docstring).
        """
        hit_cols = self._hit_columns(words)
        if hit_cols.size == 0:
            # No pivot hit: the walk looks at the lead once (if any).
            return words.copy(), payload, (1 if words.any() else 0), 0
        rows = self._row_of_col[hit_cols]
        block = self._basis[rows]
        full = np.bitwise_xor.reduce(block, axis=0)
        np.bitwise_xor(full, words, out=full)
        lead = _first_bit(full)
        if lead < 0:
            residual = full  # zero: every hit row was XOR-ed
            used = rows
        else:
            below = int(np.searchsorted(hit_cols, lead))
            used = rows[:below]
            if below == hit_cols.size:
                residual = full
            else:
                residual = np.bitwise_xor.reduce(
                    self._basis[rows[below:]], axis=0
                )
                np.bitwise_xor(residual, full, out=residual)
        n_xors = int(used.size)
        n_lookups = n_xors + (1 if lead >= 0 else 0)
        if payload is not None and n_xors:
            pay = np.bitwise_xor.reduce(self._payload_rows[used], axis=0)
            payload = np.bitwise_xor(payload, pay)
        return residual, payload, n_lookups, n_xors

    def reduce(
        self, vec: BitVector, payload: int | None = None
    ) -> tuple[BitVector, int | None]:
        """Reduce (vec, payload) against the basis; inputs untouched.

        Same partial-reduction contract (and charges) as
        :meth:`IncrementalRref.reduce`: the walk stops at the first
        non-pivot lead.
        """
        if vec.nbits != self.ncols:
            raise DimensionError(
                f"vector of length {vec.nbits} vs ncols {self.ncols}"
            )
        words = _vec_to_words(vec, self._nwords)
        row = None
        if payload is not None and self._payload_rows is not None:
            row = self._payload_row(payload)
        residual, row, n_lookups, n_xors = self._reduce_words(words, row)
        counter = self.counter
        counter.add("table_op", n_lookups)
        if n_xors:
            counter.add("gauss_row_xor", n_xors)
            counter.add("vec_word_xor", n_xors * self._nwords)
            counter.add("payload_xor", n_xors)
        if row is not None:
            payload = int.from_bytes(row.tobytes(), "little")
        return (
            BitVector._from_int(self.ncols, _words_to_int(residual)),
            payload,
        )

    def contains(self, vec: BitVector) -> bool:
        """True iff *vec* is in the span of the inserted rows."""
        residual, _ = self.reduce(vec)
        return residual.is_zero()

    def is_innovative(self, vec: BitVector) -> bool:
        """True iff inserting *vec* would increase the rank."""
        return not self.contains(vec)

    # ------------------------------------------------------------------
    def insert(self, vec: BitVector, payload: int | None = None) -> bool:
        """Insert a row; returns True iff it was innovative."""
        check_payload(payload, self.payload_nbytes)
        if vec.nbits != self.ncols:
            raise DimensionError(
                f"vector of length {vec.nbits} vs ncols {self.ncols}"
            )
        words = _vec_to_words(vec, self._nwords)
        row = None
        if payload is not None and self._payload_rows is not None:
            row = self._payload_row(payload)
        return self._insert_words(words, row)

    def _insert_words(
        self, words: np.ndarray, res_payload: np.ndarray | None
    ) -> bool:
        counter = self.counter
        residual, res_payload, n_lookups, n_xors = self._reduce_words(
            words, res_payload
        )
        counter.add("table_op", n_lookups)
        if n_xors:
            counter.add("gauss_row_xor", n_xors)
            counter.add("vec_word_xor", n_xors * self._nwords)
            counter.add("payload_xor", n_xors)
        lead = _first_bit(residual)
        if lead < 0:
            return False
        # Canonicalize: clear the remaining pivot overlaps (all above
        # the lead — basis rows carry no other pivot columns, so the
        # overlap set is fixed and processed in ascending order, exactly
        # the sequential _next_pivot_overlap walk).  The walk's
        # ``table_op`` charge inspects every set bit up to and including
        # each overlap hit (and the whole support on the final miss), on
        # the *evolving* vector — replayed here state by state.
        overlaps = self._hit_columns(residual)
        state = residual if overlaps.size == 0 else residual.copy()
        canon_ops = 0
        for col in overlaps.tolist():
            wi = col >> 6
            lowbits = int(state[wi]) & ((1 << ((col & 63) + 1)) - 1)
            canon_ops += int(
                np.bitwise_count(state[:wi]).sum()
            ) + lowbits.bit_count()
            row = self._row_of_col[col]
            np.bitwise_xor(state, self._basis[row], out=state)
            if res_payload is not None:
                np.bitwise_xor(
                    res_payload, self._payload_rows[row], out=res_payload
                )
        canon_ops += int(np.bitwise_count(state).sum())
        counter.add("table_op", canon_ops)
        n_over = int(overlaps.size)
        if n_over:
            counter.add("gauss_row_xor", n_over)
            counter.add("vec_word_xor", n_over * self._nwords)
            counter.add("payload_xor", n_over)
        # Register the canonical row.
        row_idx = self._rank
        self._basis[row_idx] = state
        if self._payload_rows is not None and res_payload is not None:
            self._payload_rows[row_idx] = res_payload
        self._rank = row_idx + 1
        self._pivot_cols.append(lead)
        self._row_of_col[lead] = row_idx
        self._pivot_mask[lead >> 6] |= np.uint64(1 << (lead & 63))
        counter.add("table_op")
        # Back-substitute: one block XOR over the rows holding the new
        # pivot column — the multi-row elimination this kernel exists
        # for.
        active = self._basis[:row_idx]
        col_bits = (active[:, lead >> 6] >> np.uint64(lead & 63)) & np.uint64(1)
        subs = np.flatnonzero(col_bits)
        n_subs = int(subs.size)
        if n_subs:
            active[subs] ^= state
            if self._payload_rows is not None and res_payload is not None:
                self._payload_rows[subs] ^= res_payload
            counter.add("gauss_row_xor", n_subs)
            counter.add("vec_word_xor", n_subs * self._nwords)
            counter.add("payload_xor", n_subs)
        return True

    # ------------------------------------------------------------------
    def decode(self) -> list[int]:
        """Native payloads in index order; requires full rank + payloads."""
        if not self.is_full_rank():
            raise DecodingError(
                f"rank {self._rank} < {self.ncols}: cannot decode yet"
            )
        if self.payload_nbytes is None:
            raise DecodingError("symbolic mode: no payloads to decode")
        out: list[int] = [0] * self.ncols
        weights = np.bitwise_count(self._basis[: self._rank]).sum(axis=1)
        if int(weights.max(initial=1)) != 1:  # pragma: no cover - invariant
            raise DecodingError("basis not fully reduced at full rank")
        for i, col in enumerate(self._pivot_cols):
            out[col] = int.from_bytes(self._payload_rows[i].tobytes(), "little")
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchRref(ncols={self.ncols}, rank={self._rank})"


def make_rref(
    ncols: int,
    payload_nbytes: int | None = None,
    counter: OpCounter | None = None,
    backend: str = "auto",
) -> "IncrementalRref | BatchRref":
    """Pick the RREF kernel for a code length.

    ``backend`` is ``"auto"`` (int kernel below
    :data:`BATCH_RREF_MIN_COLS` columns, :class:`BatchRref` at or
    above — the paper-scale ``k = 2048`` profile lands on numpy),
    ``"int"`` or ``"numpy"``.  Both kernels are result- and
    charge-identical, so the choice is invisible to everything but the
    wall clock.
    """
    if backend not in ("auto", "int", "numpy"):
        raise DimensionError(
            f"backend must be 'auto', 'int' or 'numpy', got {backend!r}"
        )
    if backend == "numpy" or (
        backend == "auto" and ncols >= BATCH_RREF_MIN_COLS
    ):
        return BatchRref(ncols, payload_nbytes=payload_nbytes, counter=counter)
    return IncrementalRref(ncols, payload_nbytes=payload_nbytes, counter=counter)
