"""Frame-level Monte Carlo: who transmits where, and what each slot yields.

A frame is n slots; each of K users picks a degree from the distribution,
picks that many distinct slots uniformly, and repeats its packet in them.
Each slot with transmitters draws a transfer matrix from the model's family
for its collision size and exposes the decoded combinations.

A frame is a record of CSR arrays (`Frame`): per occupied slot (batch) its
users and transfer column masks, per output column its member users, and
the payloads and outputs as ``uint8`` row arrays.  The outputs are encoded
by `xor_gather`, which groups the output columns by member count and XORs
each group as whole-row gathers of the member payloads, a block at a time,
so the gathered rows are never held whole.  `Batch` objects and ``bytes``
payloads are built only when asked for, for tests and demos.

A frame comes from one `Stream` keyed by the config seed, drawn in numpy
blocks and always in the same order: every user's degree, every user's
slots (one block per degree), every payload, then the transfer matrices
(one block per collision size, as column counts and padded column masks).
The same seed and config give the same frame, on every numpy version; a
single user or slot cannot be redrawn on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# `combine` is the encoding reference, kept here where benchmarks/tracing.py wraps it
from .gf2 import BitMatrix, combine, mask_dtype  # noqa: F401
from .pnc import PncModel

# Below this chance that d uniform slots are distinct, a user's slots are
# the d smallest of n random sort keys instead of resampled repeats
_MIN_DISTINCT_PROB = 0.1

# the sort keys of `_distinct_rows`' dense draw are made at most this many
# at a time (1 MiB of float64)
_KEY_BLOCK = 1 << 17

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014; Vigna's splitmix64.c):
# the state's increment and the finaliser's two multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# `xor_gather` gathers rows of at most this many bytes at a time (4,096
# rows of 32 bytes), and the peel reads back its conflicts in blocks of the
# same size.  On a 2-vCPU x86-64 VM (numpy 2.4), encoding a 20k-user frame
# took 1.0-1.1 ms with it (fastest of 40 warm calls), about as long with
# blocks of 64 KiB to 16 MiB and 1.2-1.4 ms with 32 KiB; 512 KiB blocks
# raised the tracemalloc peak of drawing that frame from 5.3 to 6.1 MiB
_GATHER_BYTES = 1 << 17

# the end of the non-negative int64 range, 2**63: `sample_frame` sorts
# transmissions by the int64 key slot * users + user, which stays below
# users * slots, and `Stream.integers` returns int64 values
_INT64_END = int(np.iinfo(np.int64).max) + 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on a ``uint64`` array (which wraps
    modulo 2**64)."""
    t = z >> 30
    z ^= t
    z *= _MIX1
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


class Stream:
    """A counter-based SplitMix64 stream: draw i is
    ``mix64(key + (i + 1) * 0x9E3779B97F4A7C15)`` modulo 2**64, which is
    Vigna's sequential splitmix64 started at state `key`, computed over a
    counter array.

    The key is the seed folded through ``mix64`` 64 bits at a time, the most
    significant word first, so every non-negative int is a seed and seeds
    below 2**64 have distinct keys.  The methods are the part of
    `numpy.random.Generator` that the samplers use, so they accept either.
    A draw of k values and then one of m uses the same 64-bit words as one
    draw of k + m, except where `integers` rejects a word and draws again.
    """

    __slots__ = ("key", "drawn")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        key = 0
        for word in reversed(range(max(1, -(-seed.bit_length() // 64)))):
            key = int(_mix64(np.array([key ^ ((seed >> 64 * word) & _MASK64)], dtype=np.uint64))[0])
        self.key = key  # splitmix64.c's state before the first draw
        self.drawn = 0  # 64-bit words used so far

    def words(self, count: int) -> np.ndarray:
        """The next `count` draws as a ``uint64`` array."""
        z = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self.key
        self.drawn += count
        return _mix64(z)

    def random(self, size) -> np.ndarray:
        """Uniform doubles in [0, 1) of shape `size`: each word's top 53
        bits times 2**-53."""
        z = self.words(int(np.prod(size)))
        z >>= 11
        return (z * 2.0 ** -53).reshape(size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """Uniform ``int64`` values in [0, high) of shape `size`, for low 0
        and high at most 2**63: each word masked to the bit length of
        high - 1, and the values past the range drawn again, so no value is
        favoured."""
        if low != 0 or not 0 < high <= _INT64_END:
            raise ValueError(f"integers draws from [0, high) with 0 < high <= 2**63, got [{low}, {high})")
        mask = (1 << (high - 1).bit_length()) - 1
        out = self.words(int(np.prod(size)))
        out &= mask
        redo = np.flatnonzero(out >= high)
        while len(redo):
            fresh = self.words(len(redo))
            fresh &= mask
            out[redo] = fresh
            redo = redo[fresh >= high]
        return out.view(np.int64).reshape(size)

    def bytes(self, length: int) -> bytes:
        """`length` random bytes: the next words, little-endian, cut to length."""
        words = self.words(-(-length // 8)).astype("<u8", copy=False)
        return words.view(np.uint8)[:length].tobytes()


class DegreeDistribution:
    """Probabilities over user repetition degrees 1..max_degree."""

    def __init__(self, probs):
        """`probs` maps degree -> probability (dict) or lists Λ_1.. in order,
        as a sequence or an array; trailing zeros are dropped."""
        if isinstance(probs, dict):
            if not probs:
                raise ValueError("empty distribution")
            top = max(probs)
            arr = [0.0] * top
            for deg, p in probs.items():
                if not isinstance(deg, int) or deg < 1:
                    raise ValueError(f"bad degree {deg!r}")
                arr[deg - 1] = float(p)
            probs = arr
        p = np.array(probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("probabilities must form one sequence")
        if not len(p):
            raise ValueError("empty distribution")
        held = p.nonzero()[0]
        self.p = p[:held[-1] + 1 if len(held) else 1]
        if not np.isfinite(self.p).all():
            raise ValueError(f"probabilities must be finite, got {self.p.tolist()}")
        if np.any(self.p < 0):
            raise ValueError("negative probability")
        if abs(float(self.p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {float(self.p.sum())!r}, not 1")
        self._cum = np.cumsum(self.p)
        self._cum[-1] = 1.0

    @property
    def max_degree(self) -> int:
        return len(self.p)

    def prob(self, degree: int) -> float:
        return float(self.p[degree - 1]) if 1 <= degree <= len(self.p) else 0.0

    def mean(self) -> float:
        """Average repetition degree (edges per user)."""
        return float(np.arange(1, len(self.p) + 1) @ self.p)

    def node_poly(self, y: float):
        """sum_i Λ_i y^i."""
        acc = 0.0
        for p in self.p[::-1]:
            acc = (acc + p) * y
        return acc

    def node_deriv(self, y: float):
        """sum_i i Λ_i y^(i-1); for an array `y`, accumulated in place in the
        same order of operations."""
        acc = np.zeros(y.shape) if isinstance(y, np.ndarray) else 0.0
        for i in range(len(self.p), 0, -1):
            acc *= y
            acc += i * self.p[i - 1]
        return acc

    def edge_weights(self) -> np.ndarray:
        """Edge-perspective weights i*Λ_i / mean, indexed from degree 1."""
        return np.arange(1, len(self.p) + 1) * self.p / self.mean()

    @classmethod
    def from_edge_weights(cls, weights) -> "DegreeDistribution":
        w = np.asarray(weights, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError(f"edge weights must be finite, got {w.tolist()}")
        if np.any(w < 0):
            raise ValueError("negative edge weight")
        node = w / np.arange(1, len(w) + 1)
        total = node.sum()
        if total <= 0:
            raise ValueError("edge weights sum to zero")
        return cls(node / total)

    @classmethod
    def from_pairs(cls, text: str) -> "DegreeDistribution":
        """Parse the CLI form "degree:prob,degree:prob", e.g. "2:0.5,3:0.5"."""
        probs = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            deg, _, p = item.partition(":")
            try:
                key = int(deg)
                val = float(p)
            except ValueError:
                raise ValueError(f"bad degree:prob pair {item!r}") from None
            if key in probs:
                raise ValueError(f"degree {key} listed twice")
            probs[key] = val
        return cls(probs)

    def to_pairs(self) -> str:
        return ",".join(f"{i + 1}:{float(p)!r}" for i, p in enumerate(self.p) if p)

    def degree_from_uniform(self, u):
        """Inverse-CDF lookup of the degree for each uniform draw in `u`
        (a scalar or an array; one draw per user)."""
        return np.minimum(np.searchsorted(self._cum, u), len(self.p) - 1) + 1


@dataclass(frozen=True)
class SystemConfig:
    """Parameters of one frame draw."""

    users: int
    slots: int
    dist: DegreeDistribution
    model: PncModel
    payload_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.users < 1:
            raise ValueError("need at least one user")
        if self.slots < self.dist.max_degree:
            raise ValueError("slots must be >= the maximum repetition degree")
        if self.payload_len < 0:
            raise ValueError("negative payload length")
        if self.users * self.slots > _INT64_END:
            raise ValueError(
                f"users * slots must be at most 2**63, the int64 range of the (slot, user) sort key; "
                f"{self.users} users allow at most {_INT64_END // self.users} slots"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def rate(self) -> float:
        return self.users / self.slots

    @property
    def offered_load(self) -> float:
        """Mean transmissions per slot: rate times mean degree."""
        return self.rate * self.dist.mean()


@dataclass(frozen=True)
class Batch:
    """One occupied slot: its transmitters and what the receiver decoded.

    `users` is ascending; transfer-matrix row r belongs to users[r].  The
    outputs are payload combinations per transfer column; a matrix with no
    columns means the collision was too big to decode.
    """

    slot: int
    users: tuple[int, ...]
    transfer: BitMatrix
    outputs: tuple[bytes, ...]


def segments(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of the given lengths laid end to end: each item's segment
    and its position within the segment."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - starts[owner]


def offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (length n + 1) for segments of the given lengths."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def stable_order(values: np.ndarray, bound: int) -> np.ndarray:
    """``values.argsort(kind="stable")`` for values in [0, bound): below
    2**32 as two stable sorts of 16-bit digits, which numpy radix-sorts."""
    if bound > 1 << 32:
        return values.argsort(kind="stable")
    order = (values & 0xFFFF).astype(np.uint16).argsort(kind="stable")
    if bound > 1 << 16:
        order = order[(values[order] >> 16).astype(np.uint16).argsort(kind="stable")]
    return order


def first_seen(values: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """For values in [0, bound) of an int64 or object array: the first
    position of each distinct value, in order of first appearance, and each
    entry's index among them.  Grouped by one `stable_order`, so each
    group's first position is its first entry."""
    order = stable_order(values, bound)
    ordered = values[order]
    opens = np.ones(len(values), bool)
    opens[1:] = ordered[1:] != ordered[:-1]
    first = order[opens]
    by_first = first.argsort()
    index = np.empty(len(values), np.int64)
    index[order] = by_first.argsort()[opens.cumsum() - 1]  # argsort inverts the permutation
    return first[by_first], index


def as_words(rows: np.ndarray) -> np.ndarray:
    """A C-contiguous 2-D uint8 array viewed as the widest unsigned words
    that divide its row length, without a copy."""
    width = rows.shape[1]
    return rows.view(f"u{next(w for w in (8, 4, 2, 1) if width % w == 0)}")


def xor_gather(src: np.ndarray, index: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """The XOR of the rows ``src[index[ptr[i]:ptr[i + 1]]]`` of a C-contiguous
    2-D uint8 array, one row per CSR segment; an empty segment gives a zero
    row.

    The segments are grouped by length.  The segments of length L are XORed
    as L gathers of whole rows (`np.take` of the `as_words` view), the j-th
    taking row j of every segment, with at most `_GATHER_BYTES` of rows in
    a gather, so the whole gather is never held.  Each block's result is
    written through a ``V{width}`` view, one item per row.  There is one
    Python step per block and row position, which suits short segments such
    as a column's members or a released packet's terms.
    """
    width = src.shape[1]
    out = np.zeros((len(ptr) - 1, width), np.uint8)
    if not width:
        return out
    words, rows = as_words(src), out.view(f"V{width}")[:, 0]
    step = max(1, _GATHER_BYTES // width)
    count = ptr[1:] - ptr[:-1]
    lengths = np.bincount(count)
    count = count.astype(np.min_scalar_type(len(lengths)))  # a byte each, for lengths below 255
    for length in (lengths[1:].nonzero()[0] + 1).tolist():
        ids = (count == length).nonzero()[0]
        for start in range(0, len(ids), step):
            block = ids[start:start + step]
            at = ptr[block]  # row j of each segment's rows in `index`, from j = 0
            acc = np.take(words, np.take(index, at), axis=0)
            for _ in range(1, length):
                at += 1
                acc ^= np.take(words, np.take(index, at), axis=0)
            rows[block] = acc.view(f"V{width}")[:, 0]
    return out


class Frame:
    """A fully drawn frame with ground-truth payloads, held as CSR arrays.

    A batch is one occupied slot: its transmitters, its transfer matrix and
    what the receiver decoded there.  The frame stores them column-wise:

    * ``payload_rows``: ``(K, L)`` ``uint8``, row u is user u's packet;
    * ``batch_slot``: each batch's slot; batch b's users are
      ``batch_users[batch_ptr[b]:batch_ptr[b + 1]]`` (row r of its transfer
      matrix belongs to its r-th user) and its transfer columns, as row
      bitmasks, are ``column_masks[column_ptr[b]:column_ptr[b + 1]]``;
    * per output column e over all batches, its member users
      ``members[member_ptr[e]:member_ptr[e + 1]]`` (the users whose packets
      enter it, in row order) and the received combination ``outputs[e]``, an
      ``(E, L)`` ``uint8`` array.

    Column masks have the dtype `gf2.mask_dtype` picks for the most rows of a
    batch with columns: ``int64``, or Python ints (``object``) past its
    width.  ``Frame(n_slots, payload_len, payloads, batches)`` builds the
    arrays from `Batch` objects, which may come in any order; `sample_frame`
    writes them directly.  `payloads` (one ``bytes`` per user) and `batches`
    (one `Batch` per occupied slot, in stored order) are built on first use.
    The arrays are never written after construction.
    """

    __slots__ = (
        "n_slots", "payload_len", "payload_rows", "batch_slot", "batch_ptr", "batch_users",
        "column_ptr", "column_masks", "member_ptr", "members", "outputs", "mismatched_outputs", "_payloads",
        "_batches",
    )

    def __init__(self, n_slots: int, payload_len: int, payloads, batches):
        payloads = tuple(payloads)
        batches = tuple(batches)
        if any(len(p) != payload_len for p in payloads):
            raise ValueError("every payload must be payload_len bytes")
        for batch in batches:
            if batch.transfer.rows != len(batch.users) or len(batch.outputs) != batch.transfer.cols:
                raise ValueError(f"batch of slot {batch.slot}: transfer shape does not match users and outputs")
            if any(len(o) != payload_len for o in batch.outputs):
                raise ValueError("every output must be payload_len bytes")
            if any(not 0 <= u < len(payloads) for u in batch.users):
                raise ValueError(f"batch of slot {batch.slot} names a user out of range")
        masks = [m for b in batches for m in b.transfer.column_masks()]
        rows = max((len(b.users) for b in batches if b.transfer.cols), default=0)
        self._set(
            n_slots,
            payload_len,
            np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(len(payloads), payload_len),
            np.array([b.slot for b in batches], dtype=np.int64),
            offsets(np.array([len(b.users) for b in batches], dtype=np.int64)),
            np.array([u for b in batches for u in b.users], dtype=np.int64),
            offsets(np.array([b.transfer.cols for b in batches], dtype=np.int64)),
            np.array(masks, dtype=mask_dtype(rows)),
            np.frombuffer(b"".join(o for b in batches for o in b.outputs), dtype=np.uint8).reshape(
                len(masks), payload_len
            ),
        )
        self._payloads = payloads
        self._batches = batches

    @classmethod
    def _from_arrays(cls, n_slots, payload_len, payload_rows, batch_slot, batch_ptr, batch_users,
                     column_ptr, column_masks) -> "Frame":
        """A frame from its batch arrays, with the outputs encoded from the
        payload rows."""
        frame = cls.__new__(cls)
        frame._set(n_slots, payload_len, payload_rows, batch_slot, batch_ptr, batch_users, column_ptr, column_masks)
        return frame

    def _set(self, n_slots, payload_len, payload_rows, batch_slot, batch_ptr, batch_users,
             column_ptr, column_masks, outputs=None) -> None:
        """Store the batch arrays and derive the member lists; `outputs` None
        encodes them."""
        self.n_slots = n_slots
        self.payload_len = payload_len
        self.payload_rows = payload_rows
        self.batch_slot = batch_slot
        self.batch_ptr = batch_ptr
        self.batch_users = batch_users
        self.column_ptr = column_ptr
        self.column_masks = column_masks
        self.members, self.member_ptr = _members(batch_ptr, batch_users, column_ptr, column_masks)
        encoded = xor_gather(payload_rows, self.members, self.member_ptr)
        # output columns that differ from the XOR of their members' payloads:
        # none when the frame encodes its own outputs, and in a hand-built frame only if it is corrupt
        if outputs is None:
            self.outputs = encoded
            self.mismatched_outputs = np.empty(0, dtype=np.int64)
        else:
            self.outputs = outputs
            self.mismatched_outputs = np.flatnonzero((encoded != outputs).any(axis=1))
        for name in ("payload_rows", "batch_slot", "batch_ptr", "batch_users", "column_ptr", "column_masks",
                     "members", "member_ptr", "outputs", "mismatched_outputs"):
            getattr(self, name).flags.writeable = False
        self._payloads = None
        self._batches = None

    @property
    def users(self) -> int:
        return len(self.payload_rows)

    @property
    def payloads(self) -> tuple[bytes, ...]:
        """Each user's packet as ``bytes``."""
        if self._payloads is None:
            blob = self.payload_rows.tobytes()
            size = self.payload_len
            self._payloads = tuple(blob[u * size:(u + 1) * size] for u in range(self.users))
        return self._payloads

    @property
    def batches(self) -> tuple[Batch, ...]:
        """One `Batch` per occupied slot, in stored order."""
        if self._batches is None:
            users = self.batch_users.tolist()
            uptr = self.batch_ptr.tolist()
            masks = self.column_masks.tolist()
            cptr = self.column_ptr.tolist()
            blob = self.outputs.tobytes()
            size = self.payload_len
            self._batches = tuple(
                Batch(
                    slot=slot,
                    users=tuple(users[uptr[b]:uptr[b + 1]]),
                    transfer=BitMatrix(uptr[b + 1] - uptr[b], cptr[b + 1] - cptr[b], masks[cptr[b]:cptr[b + 1]]),
                    outputs=tuple(blob[e * size:(e + 1) * size] for e in range(cptr[b], cptr[b + 1])),
                )
                for b, slot in enumerate(self.batch_slot.tolist())
            )
        return self._batches

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.n_slots, self.payload_len) == (other.n_slots, other.payload_len) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("payload_rows", "batch_slot", "batch_ptr", "batch_users", "column_ptr",
                         "column_masks", "outputs")
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"Frame(n_slots={self.n_slots}, users={self.users}, payload_len={self.payload_len}, "
                f"batches={len(self.batch_slot)}, outputs={len(self.outputs)})")


def _members(batch_ptr, batch_users, column_ptr, column_masks) -> tuple[np.ndarray, np.ndarray]:
    """Each output column's member users, in row order, as CSR arrays
    ``(members, member_ptr)``.

    The column masks are unpacked one byte per row, as wide as the widest
    mask, and the set bits are found in the flat unpacked array, which
    gives them in C order: by column, then by row.  A set bit's flat index
    less its column's start is its row, and the batch's first row places
    it among the batch users.
    """
    width = (int(column_masks.max(initial=0)).bit_length() + 7) // 8
    count = np.bitwise_count(column_masks).astype(np.int64)
    if column_masks.dtype == object:
        raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in column_masks.tolist()), np.uint8)
    else:
        raw = column_masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, :width]
    # the outputs first, below the temporaries in the heap
    member_ptr = offsets(count)
    members = np.empty(int(member_ptr[-1]), np.int64)
    row = np.flatnonzero(np.unpackbits(raw.reshape(len(column_masks), width), axis=1, bitorder="little"))
    # each column's first batch row, less its start in the unpacked array
    start = np.repeat(batch_ptr[:-1], column_ptr[1:] - column_ptr[:-1])
    step = np.arange(len(column_masks))
    step *= 8 * width
    start -= step
    del step
    row += np.repeat(start, count)
    return np.take(batch_users, row, out=members), member_ptr


def _distinct_rows(rng: Stream, count: int, d: int, n: int) -> np.ndarray:
    """`count` independent uniform d-subsets of range(n), one row each.

    Rows of d uniform slots are drawn in one block, sorted, and only the
    rows that repeat a slot are drawn again, which keeps every accepted row
    uniform over the subsets.  When repeats are likely (d close to n) each
    row is instead the positions of the d smallest of n random sort keys,
    unsorted, so the draw always ends; the keys are made `_KEY_BLOCK` at a
    time.  `sample_frame` sorts all (slot, user) keys, so no caller needs a
    row in order.
    """
    if math.prod((n - j) / n for j in range(d)) < _MIN_DISTINCT_PROB:
        rows = np.empty((count, d), dtype=np.int64)
        step = max(1, _KEY_BLOCK // n)
        for start in range(0, count, step):
            keys = rng.random((min(step, count - start), n))
            rows[start:start + len(keys)] = np.argsort(keys, axis=1)[:, :d]
        return rows
    rows = np.sort(rng.integers(0, n, size=(count, d)), axis=1)
    redo = np.flatnonzero(_repeats(rows))
    while len(redo):
        fresh = np.sort(rng.integers(0, n, size=(len(redo), d)), axis=1)
        rows[redo] = fresh
        redo = redo[_repeats(fresh)]
    return rows


def _repeats(rows: np.ndarray) -> np.ndarray:
    """Whether each sorted row repeats a value: the d - 1 compares of
    adjacent columns ORed as 1-D arrays, not reduced along the short rows."""
    out = np.zeros(len(rows), bool)
    for j in range(1, rows.shape[1]):
        out |= rows[:, j] == rows[:, j - 1]
    return out


def sample_frame(config: SystemConfig) -> Frame:
    """Draw one frame deterministically from the config seed, through one
    `Stream` keyed by it (the seed-to-frame mapping of ``ncsa-simulate-v5``),
    so a seed gives the same frame on every numpy version."""
    n = config.slots
    users = config.users
    payload_len = config.payload_len
    rng = Stream(config.seed)

    degrees = config.dist.degree_from_uniform(rng.random(users))
    ends = np.cumsum(degrees)
    flat = np.empty(int(ends[-1]), dtype=np.int64)  # every user's slots, user by user
    # the degrees drawn, ascending; np.unique would import numpy.ma (numpy 2.4)
    for d in np.bincount(degrees).nonzero()[0].tolist():
        who = np.flatnonzero(degrees == d)
        flat[(ends[who] - d)[:, None] + np.arange(d)] = _distinct_rows(rng, len(who), d, n)
    payload_rows = np.frombuffer(rng.bytes(users * payload_len), dtype=np.uint8).reshape(users, payload_len)

    # occupancy: sorting the distinct keys slot * users + user, made in
    # place, keeps each slot's users ascending
    flat *= users
    flat += np.repeat(np.arange(users, dtype=np.int64), degrees)
    del degrees, ends  # dropped once used, which keeps the peak memory of a draw low
    flat.sort()
    by_slot, batch_users = np.divmod(flat, users)
    del flat
    opens = np.empty(len(by_slot), bool)  # where a slot's run of keys begins
    opens[:1] = True
    np.not_equal(by_slot[1:], by_slot[:-1], out=opens[1:])
    first = np.flatnonzero(opens)
    del opens
    batch_slot = by_slot[first]
    sizes = np.diff(first, append=len(by_slot))
    del by_slot, first
    column_ptr, column_masks = _draw_transfers(config.model, rng, sizes)
    return Frame._from_arrays(
        n, payload_len, payload_rows, batch_slot, offsets(sizes), batch_users, column_ptr, column_masks,
    )


def _draw_transfers(model: PncModel, rng: Stream, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column offsets and column masks of a transfer matrix for each
    batch, given the batches' collision sizes: drawn one block per size, in
    ascending size and batch order (the batches grouped by one stable
    sort), then scattered back to batch order one column position at a
    time."""
    n_cols = np.zeros(len(sizes), dtype=np.int64)
    count = np.bincount(sizes)
    order = stable_order(sizes, len(count))
    drawn = []
    # the collision sizes present, ascending; np.unique would import numpy.ma (numpy 2.4)
    ends = np.cumsum(count)
    for c in count.nonzero()[0].tolist():
        at = order[ends[c] - count[c]:ends[c]]
        n_cols[at], masks = model.family(c).sample(rng, len(at))
        drawn.append((at, masks))
    column_ptr = offsets(n_cols)
    column_masks = np.zeros(int(column_ptr[-1]), dtype=mask_dtype(int(sizes[n_cols > 0].max(initial=0))))
    for at, masks in drawn:
        first, cols = column_ptr[at], n_cols[at]
        for j in range(masks.shape[1]):
            held = (cols > j).nonzero()[0]  # the zero padding is not stored
            column_masks[first[held] + j] = masks[held, j]
    return column_ptr, column_masks


def slot_degree_histogram(frame: Frame) -> np.ndarray:
    """Counts of slots by collision size; index d = number of slots with d transmitters.

    Every occupied slot has a batch, so the slots without one are idle.
    """
    hist = np.bincount(np.diff(frame.batch_ptr), minlength=1)
    hist[0] = frame.n_slots - len(frame.batch_slot)
    return hist


def global_matrix(frame: Frame) -> BitMatrix:
    """Stack every batch's transfer columns into one users x outputs matrix.

    Column (t, j) has a 1 in row u when user u's packet enters output j of
    slot t.  Rank queries against this matrix bound what any decoder could
    ever recover from the frame.
    """
    members = frame.members.tolist()
    ptr = frame.member_ptr.tolist()
    masks = [sum(1 << u for u in members[ptr[e]:ptr[e + 1]]) for e in range(len(ptr) - 1)]
    return BitMatrix(frame.users, len(masks), masks)
