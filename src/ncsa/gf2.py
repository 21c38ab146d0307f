"""Dense GF(2) matrices and their column reduction.

Matrices are immutable and stored column-major as Python integer bitmasks
(bit r of column j is the entry in row r).  That keeps the elimination
kernels branch-light for the small per-slot matrices the decoders chew
through, while `to_rows` / `from_rows` give an entrywise view that the rest
of the package and the tests work against.

`rcef` returns, next to the reduced matrix, which original columns make up
each reduced column; any right-hand side follows by `combine` over those
combinations, so the reduction itself never touches payloads.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def mask_dtype(rows: int):
    """The numpy dtype that holds column masks over `rows` rows: ``int64``
    up to 63 rows, Python ints (``object``) beyond."""
    return np.int64 if rows <= 63 else object


class BitMatrix:
    """An immutable rows x cols matrix over GF(2).

    The empty matrix (``cols == 0``) is a valid value; it is what a slot
    whose transmissions cannot be decoded contributes.
    """

    __slots__ = ("rows", "cols", "_cols")

    def __init__(self, rows: int, cols: int, column_masks: Sequence[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        masks = list(column_masks) if column_masks is not None else [0] * cols
        if len(masks) != cols:
            raise ValueError("column mask count does not match cols")
        limit = 1 << rows
        for m in masks:
            if not 0 <= m < limit:
                raise ValueError("column mask has bits outside the row range")
        self.rows = rows
        self.cols = cols
        self._cols = tuple(masks)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        """Build from a row-major list of 0/1 entries.

        `cols` is only needed to disambiguate a matrix with zero rows.
        """
        nrows = len(rows)
        if nrows == 0:
            return cls(0, cols or 0)
        ncols = len(rows[0])
        masks = [0] * ncols
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                if v:
                    masks[j] |= 1 << r
        return cls(nrows, ncols, masks)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    def get(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError("entry out of range")
        return (self._cols[c] >> r) & 1

    def column_mask(self, c: int) -> int:
        return self._cols[c]

    def column_masks(self) -> tuple[int, ...]:
        return self._cols

    def to_rows(self) -> list[list[int]]:
        return [[(m >> r) & 1 for m in self._cols] for r in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._cols) == (other.rows, other.cols, other._cols)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._cols))

    def __repr__(self) -> str:
        if self.cols == 0:
            return f"BitMatrix({self.rows}x0)"
        body = "; ".join("".join(str((m >> r) & 1) for m in self._cols) for r in range(self.rows))
        return f"BitMatrix([{body}])"


def _reduce_against(basis: dict[int, int], mask: int) -> int:
    """Reduce a column against a lowest-set-bit keyed basis; 0 means in-span."""
    while mask:
        low = mask & -mask
        if low not in basis:
            return mask
        mask ^= basis[low]
    return 0


def span_basis(masks: Iterable[int]) -> dict[int, int]:
    """Basis of the span of column masks, keyed by each vector's lowest set bit.

    Every stored vector's lowest set bit is its key, and no two keys repeat,
    so the basis size is the rank and `_reduce_against` decides membership.
    """
    basis: dict[int, int] = {}
    for m in masks:
        m = _reduce_against(basis, m)
        if m:
            basis[m & -m] = m
    return basis


def units_in_span(basis: dict[int, int], n: int) -> list[int]:
    """Rows i < n whose unit vector 1 << i lies in the span of a `span_basis`
    basis over n rows.

    Same answer as ``_reduce_against(basis, 1 << i) == 0`` for each i, in one
    pass over the basis's set bits instead of one reduction per row.  A unit
    vector lies in the span exactly when every vector orthogonal to the span
    is 0 at its row.  The orthogonal complement has one basis vector per
    non-key row j: 1 at j, 0 at the other non-key rows, and at key row p the
    parity of its entries on the other bits of the basis vector keyed p, all
    of which lie above p, so key rows are filled in from the top.  Bit k of
    `ortho[i]` holds complement vector k's entry at row i.
    """
    ortho = [0] * n
    free = 0
    for i in range(n):
        if (1 << i) not in basis:
            ortho[i] = 1 << free
            free += 1
    for key in sorted(basis, reverse=True):
        rest = basis[key] ^ key
        acc = 0
        while rest:
            low = rest & -rest
            acc ^= ortho[low.bit_length() - 1]
            rest ^= low
        ortho[key.bit_length() - 1] = acc
    return [i for i in range(n) if not ortho[i]]


def rank(matrix: BitMatrix) -> int:
    """GF(2) rank (equals row rank by duality)."""
    return len(span_basis(matrix.column_masks()))


def rcef(matrix: BitMatrix) -> tuple[BitMatrix, list[int], int]:
    """Reduced column echelon form, and the column combinations that give it.

    Pivots are chosen deterministically: scanning pivot rows top-down, the
    leftmost not-yet-pivot column with a 1 in that row becomes the pivot and
    the row is cleared from every other column.  The result is the unique
    RCEF: each nonzero column leads with a 1 in a distinct pivot row, pivot
    rows strictly increase left to right, no pivot row has a second nonzero
    entry, and zero columns sit at the right end.

    Bit i of ``combos[j]`` is set when original column i enters reduced
    column j, so a right-hand side ``u`` (one payload per column) reduces
    to ``combine(u, BitMatrix(cols, cols, combos))``; with
    ``u == combine(v, matrix)`` that is ``combine(v, reduced)``.

    Returns:
        (reduced matrix, combos, field operations), counting one per swap
        and two per column add (the column and its combination).
    """
    masks = list(matrix.column_masks())
    combos = [1 << j for j in range(matrix.cols)]
    ops = 0
    p = 0
    for r in range(matrix.rows):
        if p == matrix.cols:
            break
        bit = 1 << r
        pivot = next((j for j in range(p, matrix.cols) if masks[j] & bit), None)
        if pivot is None:
            continue
        if pivot != p:
            masks[p], masks[pivot] = masks[pivot], masks[p]
            combos[p], combos[pivot] = combos[pivot], combos[p]
            ops += 1
        for j in range(matrix.cols):
            if j != p and masks[j] & bit:
                masks[j] ^= masks[p]
                combos[j] ^= combos[p]
                ops += 2
        p += 1
    return BitMatrix(matrix.rows, matrix.cols, masks), combos, ops


def in_colspan(matrix: BitMatrix, vector: int) -> bool:
    """Whether a column vector, packed as a bitmask over the matrix rows,
    lies in the span of the matrix columns."""
    if not 0 <= vector < (1 << matrix.rows):
        raise ValueError("vector mask outside row range")
    return _reduce_against(span_basis(matrix.column_masks()), vector) == 0


def select_rows(matrix: BitMatrix, rows: Iterable[int]) -> BitMatrix:
    """Submatrix keeping the given rows, in the order listed."""
    keep = list(rows)
    for r in keep:
        if not 0 <= r < matrix.rows:
            raise IndexError(f"row {r} out of range")
    masks = []
    for m in matrix.column_masks():
        sub = 0
        for k, r in enumerate(keep):
            if (m >> r) & 1:
                sub |= 1 << k
        masks.append(sub)
    return BitMatrix(len(keep), matrix.cols, masks)


def combine(payloads: Sequence[bytes], matrix: BitMatrix) -> list[bytes]:
    """Multiply a payload row-vector by a matrix: out[j] = XOR of payloads in column j.

    This is how slot outputs are formed from user packets, and how a
    right-hand side follows the column combinations `rcef` returns.
    Requires one payload per matrix row; all payloads must share a length.  Each payload
    is read as one integer and each output written once, whatever the
    number of XORs.
    """
    if len(payloads) != matrix.rows:
        raise ValueError("payload count does not match row count")
    length = len(payloads[0]) if payloads else 0
    values = []
    for p in payloads:
        if len(p) != length:
            raise ValueError(f"length mismatch: {len(p)} vs {length}")
        values.append(int.from_bytes(p, "big"))
    out = []
    for m in matrix.column_masks():
        acc = 0
        while m:
            low = m & -m
            acc ^= values[low.bit_length() - 1]
            m ^= low
        out.append(acc.to_bytes(length, "big"))
    return out
