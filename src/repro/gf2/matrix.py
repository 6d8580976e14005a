"""Dense GF(2) matrices and incremental Gaussian reduction.

Two consumers in the paper's system need GF(2) linear algebra:

* the RLNC baseline (§IV-A) decodes with Gaussian reduction on the code
  matrix and detects non-innovative packets through a partial reduction
  at insertion time;
* tests and ablations use an exact rank oracle as the ground truth for
  innovation, against which LTNC's heuristic redundancy detection
  (§III-C1) is compared.

:class:`IncrementalRref` maintains a reduced row-echelon basis under
row insertions, optionally carrying payload rows so that decoding falls
out of the reduction (once the rank reaches *k* the basis rows are unit
vectors and payload rows are the native packets).  Every row operation
is recorded in an :class:`~repro.costmodel.counters.OpCounter` so the
Figure 8 cost benches can weigh it.

Hot-loop design: alongside the column->row dict the basis keeps a
*pivot-column bitmask* (one int), so the forward reduction finds the
next pivot overlap with a single ``&`` instead of re-scanning the
residual's indices, and the back-substitution test is one bit probe
per basis row.  Counter totals are provably identical to the reference
kernel (``repro.gf2.reference``): the reference loop charges one
``table_op`` per column it walks, and the closed-form
``popcount(residual & mask)`` expressions below charge the same walk
without taking it — the differential property tests pin this down.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2.bitvec import BitVector

__all__ = ["GF2Matrix", "IncrementalRref", "check_payload"]


def check_payload(payload: int | None, nbytes: int | None) -> None:
    """Raise unless int *payload* fits in *nbytes* bytes (``None`` skips).

    An int XOR cannot notice a width mismatch the way an array shape
    check did, so every place a payload enters checks its width.
    """
    if (
        payload is not None
        and nbytes is not None
        and payload.bit_length() > 8 * nbytes
    ):
        raise DimensionError(
            f"payload of {(payload.bit_length() + 7) // 8} bytes "
            f"exceeds m={nbytes}"
        )


class GF2Matrix:
    """An immutable-size list of GF(2) rows with batch reductions.

    This is the offline companion of :class:`IncrementalRref`: build it
    from a set of code vectors, then ask for rank or row-reduce it in
    one pass.  Rows are :class:`BitVector` instances of equal length.
    """

    def __init__(self, rows: Iterable[BitVector]) -> None:
        self.rows: list[BitVector] = [r.copy() for r in rows]
        if self.rows:
            ncols = self.rows[0].nbits
            for r in self.rows:
                if r.nbits != ncols:
                    raise DimensionError("ragged rows in GF2Matrix")
            self.ncols = ncols
        else:
            self.ncols = 0

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "GF2Matrix":
        """Build from a 2-D 0/1 array (row per vector).

        Rows are packed with one :func:`numpy.packbits` call over the
        whole matrix rather than a Python loop per bit.
        """
        array = np.asarray(array)
        if array.ndim != 2:
            raise DimensionError("from_dense expects a 2-D array")
        nrows, ncols = array.shape
        if ncols == 0:
            return cls(BitVector(0) for _ in range(nrows))
        packed = np.packbits(
            (array % 2).astype(bool), axis=1, bitorder="little"
        )
        return cls(
            BitVector._from_int(
                ncols, int.from_bytes(packed[i].tobytes(), "little")
            )
            for i in range(nrows)
        )

    def to_dense(self) -> np.ndarray:
        """Return the matrix as a 2-D uint8 0/1 array."""
        out = np.zeros((len(self.rows), self.ncols), dtype=np.uint8)
        for i, row in enumerate(self.rows):
            out[i, row.indices()] = 1
        return out

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        """Rank over GF(2) (does not modify the matrix)."""
        if not self.rows:
            return 0
        rref = IncrementalRref(self.ncols)
        for row in self.rows:
            rref.insert(row)
        return rref.rank

    def row_reduce(self) -> "GF2Matrix":
        """Return the reduced row-echelon form (pivot rows only)."""
        if not self.rows:
            return GF2Matrix([])
        rref = IncrementalRref(self.ncols)
        for row in self.rows:
            rref.insert(row)
        return GF2Matrix(rref.basis_rows())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF2Matrix({self.nrows}x{self.ncols})"


class IncrementalRref:
    """Reduced row-echelon basis maintained under row insertions.

    Rows are reduced against existing pivots on insertion; if a nonzero
    residual remains, it becomes a new pivot row and existing rows are
    back-substituted so the basis stays in *reduced* echelon form.  This
    mirrors what a practical RLNC implementation does: the incremental
    work spread over receptions *is* the decoding Gauss reduction.

    Parameters
    ----------
    ncols:
        Width of the vectors (the code length *k*).
    payload_nbytes:
        If not ``None``, each inserted row carries an ``m``-byte payload
        (an int, see :mod:`repro.coding.packet`) and payload rows are
        XOR-ed alongside vector rows, so decoding produces the native
        packets.  ``None`` runs in symbolic mode (vectors only; payload
        XORs are still *counted*).
    counter:
        Destination for cost accounting; a private counter is created
        when omitted.
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
        # pivot column -> position in self._rows
        self._pivot_of_col: dict[int, int] = {}
        # bitmask with bit c set iff column c is a pivot column
        self._pivot_mask: int = 0
        self._rows: list[BitVector] = []
        self._payloads: list[int | None] = []
        self._pivot_cols: list[int] = []

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Current rank of the inserted rows."""
        return len(self._rows)

    def is_full_rank(self) -> bool:
        """True iff the basis spans the whole space."""
        return self.rank == self.ncols

    def basis_rows(self) -> list[BitVector]:
        """Copies of the current pivot rows (reduced echelon form)."""
        return [r.copy() for r in self._rows]

    def pivot_columns(self) -> list[int]:
        """Pivot column of each basis row, in insertion order."""
        return list(self._pivot_cols)

    # ------------------------------------------------------------------
    def _xor_row(
        self,
        vec: BitVector,
        payload: int | None,
        row_idx: int,
    ) -> int | None:
        """XOR basis row *row_idx* into (vec, payload), with accounting."""
        vec._x ^= self._rows[row_idx]._x
        counter = self.counter
        counter.add("gauss_row_xor")
        counter.add("vec_word_xor", (self.ncols + 63) >> 6)
        counter.add("payload_xor")
        other = self._payloads[row_idx]
        if payload is not None and other is not None:
            payload ^= other
        return payload

    def reduce(
        self, vec: BitVector, payload: int | None = None
    ) -> tuple[BitVector, int | None]:
        """Reduce (vec, payload) against the basis; inputs untouched.

        Returns the residual vector (zero iff *vec* is in the span) and
        the correspondingly reduced payload.
        """
        if vec.nbits != self.ncols:
            raise DimensionError(
                f"vector of length {vec.nbits} vs ncols {self.ncols}"
            )
        res_payload = payload
        x = vec._x
        pivot_mask = self._pivot_mask
        pivot_of_col = self._pivot_of_col
        rows = self._rows
        payloads = self._payloads
        n_lookups = 0
        n_xors = 0
        # Basis rows are canonical (no other pivot column set), so each
        # XOR clears exactly the current lead among pivot columns and
        # only ever touches bits above it: the loop walks leads upward.
        while x:
            lsb = x & -x
            n_lookups += 1
            if not (pivot_mask & lsb):
                break
            row_idx = pivot_of_col[lsb.bit_length() - 1]
            x ^= rows[row_idx]._x
            n_xors += 1
            other = payloads[row_idx]
            if res_payload is not None and other is not None:
                res_payload ^= other
        counter = self.counter
        counter.add("table_op", n_lookups)
        if n_xors:
            counter.add("gauss_row_xor", n_xors)
            counter.add("vec_word_xor", n_xors * ((self.ncols + 63) >> 6))
            counter.add("payload_xor", n_xors)
        return BitVector._from_int(self.ncols, x), res_payload

    def contains(self, vec: BitVector) -> bool:
        """True iff *vec* is in the span of the inserted rows."""
        residual, _ = self.reduce(vec)
        return residual.is_zero()

    def is_innovative(self, vec: BitVector) -> bool:
        """True iff inserting *vec* would increase the rank."""
        return not self.contains(vec)

    def insert(self, vec: BitVector, payload: int | None = None) -> bool:
        """Insert a row; returns True iff it was innovative.

        Keeps the basis in *reduced* echelon form: after the forward
        reduction of the new row, every existing row containing the new
        pivot column is back-substituted.  A payload wider than
        ``payload_nbytes`` bytes raises.
        """
        check_payload(payload, self.payload_nbytes)
        residual, res_payload = self.reduce(vec, payload)
        lead = residual.first_index()
        if lead < 0:
            return False
        # Fully reduce below the leading bit so the new row is canonical.
        while True:
            nxt = self._next_pivot_overlap(residual)
            if nxt is None:
                break
            res_payload = self._xor_row(residual, res_payload, nxt)
        row_idx = len(self._rows)
        self._rows.append(residual)
        self._payloads.append(res_payload)
        self._pivot_cols.append(lead)
        self._pivot_of_col[lead] = row_idx
        self._pivot_mask |= 1 << lead
        counter = self.counter
        counter.add("table_op")
        # Back-substitute: clear the new pivot column from older rows.
        lead_bit = 1 << lead
        new_x = residual._x
        rows = self._rows
        payloads = self._payloads
        n_subs = 0
        for i in range(row_idx):
            row = rows[i]
            if row._x & lead_bit:
                row._x ^= new_x
                n_subs += 1
                p = payloads[i]
                if p is not None and res_payload is not None:
                    payloads[i] = p ^ res_payload
        if n_subs:
            counter.add("gauss_row_xor", n_subs)
            counter.add("vec_word_xor", n_subs * ((self.ncols + 63) >> 6))
            counter.add("payload_xor", n_subs)
        return True

    def _next_pivot_overlap(self, vec: BitVector) -> int | None:
        """Index of a basis row whose pivot column is set in *vec*.

        Only columns *after* the leading one can still be set, since
        :meth:`reduce` cleared every pivot at or before the lead.  The
        overlap is found with one ``&`` against the pivot mask; the
        ``table_op`` charge replays the per-column walk the reference
        kernel performs (every set bit up to and including the hit, or
        the whole support on a miss).
        """
        x = vec._x
        overlap = x & self._pivot_mask & ~(x & -x)
        if not overlap:
            self.counter.add("table_op", x.bit_count())
            return None
        low = overlap & -overlap
        self.counter.add("table_op", (x & ((low << 1) - 1)).bit_count())
        return self._pivot_of_col[low.bit_length() - 1]

    # ------------------------------------------------------------------
    def decode(self) -> list[int]:
        """Native payloads in index order; requires full rank + payloads.

        In reduced echelon form at full rank every basis row is a unit
        vector, so the payload rows *are* the native packets.
        """
        if not self.is_full_rank():
            raise DecodingError(
                f"rank {self.rank} < {self.ncols}: cannot decode yet"
            )
        if self.payload_nbytes is None:
            raise DecodingError("symbolic mode: no payloads to decode")
        out: list[int] = [0] * self.ncols
        for row, col, payload in zip(
            self._rows, self._pivot_cols, self._payloads
        ):
            if row.weight() != 1:  # pragma: no cover - RREF invariant
                raise DecodingError("basis not fully reduced at full rank")
            if payload is not None:
                out[col] = payload
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IncrementalRref(ncols={self.ncols}, rank={self.rank})"


def rank_of(vectors: Sequence[BitVector], ncols: int | None = None) -> int:
    """Convenience rank computation for a sequence of vectors."""
    vecs = list(vectors)
    if not vecs:
        return 0
    rref = IncrementalRref(ncols if ncols is not None else vecs[0].nbits)
    for v in vecs:
        rref.insert(v)
    return rref.rank
