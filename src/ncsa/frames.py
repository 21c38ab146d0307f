"""Frame-level Monte Carlo: who transmits where, and what each slot yields.

A frame is n slots; each of K users picks a degree from the distribution,
picks that many distinct slots uniformly, and repeats its packet in them.
Each slot with transmitters draws a transfer matrix from the model's family
for its collision size and exposes the decoded combinations.

A frame is a record of CSR arrays (`Frame`): per occupied slot (batch) its
users and transfer column masks, per output column its member users, and
the payloads and outputs as ``uint8`` row arrays.  The outputs are encoded
with one XOR-reduce over member payload rows.  `Batch` objects and
``bytes`` payloads are built only when asked for, for tests and demos.

A frame comes from one generator seeded with the config seed, drawn in
numpy blocks and always in the same order: every user's degree, every
user's slots (one block per degree), every payload, then the transfer
matrices (one block per collision size).  The same seed and config give the
same frame; a single user or slot cannot be redrawn on its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# `combine` is the encoding reference, kept here where benchmarks/tracing.py wraps it
from .gf2 import BitMatrix, combine  # noqa: F401
from .pnc import PncModel

# Below this chance that d uniform slots are distinct, a user's slots come
# from one `choice` without replacement instead of resampling repeats.
_MIN_DISTINCT_PROB = 0.1


class DegreeDistribution:
    """Probabilities over user repetition degrees 1..max_degree."""

    def __init__(self, probs):
        """`probs` maps degree -> probability (dict) or lists Λ_1.. in order."""
        if isinstance(probs, dict):
            if not probs:
                raise ValueError("empty distribution")
            top = max(probs)
            arr = [0.0] * top
            for deg, p in probs.items():
                if not isinstance(deg, int) or deg < 1:
                    raise ValueError(f"bad degree {deg!r}")
                arr[deg - 1] = float(p)
        else:
            arr = [float(p) for p in probs]
        while len(arr) > 1 and arr[-1] == 0.0:
            arr.pop()
        if not arr:
            raise ValueError("empty distribution")
        self.p = np.asarray(arr, dtype=float)
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
        """sum_i i Λ_i y^(i-1)."""
        acc = 0.0
        for i in range(len(self.p), 0, -1):
            acc = acc * y + i * self.p[i - 1]
        return acc

    def edge_weights(self) -> np.ndarray:
        """Edge-perspective weights i*Λ_i / mean, indexed from degree 1."""
        return np.arange(1, len(self.p) + 1) * self.p / self.mean()

    @classmethod
    def from_edge_weights(cls, weights) -> "DegreeDistribution":
        w = np.asarray(weights, dtype=float)
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


def xor_segments(rows: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """XOR of each CSR segment ``rows[ptr[i]:ptr[i + 1]]`` of a C-contiguous
    2-D uint8 array, one row per segment; an empty segment gives a zero row.

    Rows are XORed as the widest unsigned words that divide their length,
    which makes the reduction several times faster than byte by byte.
    """
    width = rows.shape[1]
    word = next(w for w in (8, 4, 2, 1) if width % w == 0)
    words = rows.view(f"u{word}")
    out = np.zeros((len(ptr) - 1, words.shape[1]), dtype=words.dtype)
    nonempty = np.flatnonzero(ptr[1:] > ptr[:-1])
    if len(nonempty):
        out[nonempty] = np.bitwise_xor.reduceat(words, ptr[nonempty], axis=0)
    return out.view(np.uint8)


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

    Column masks are ``int64``, or Python ints (``object``) when a batch with
    columns has more than 63 rows.  ``Frame(n_slots, payload_len, payloads,
    batches)`` builds the arrays from `Batch` objects, which may come in any
    order; `sample_frame` writes them directly.  `payloads` (one ``bytes`` per
    user) and `batches` (one `Batch` per occupied slot, in stored order) are
    built on first use.  The arrays are never written after construction.
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
        wide = any(len(b.users) > 63 for b in batches if b.transfer.cols)
        masks = [m for b in batches for m in b.transfer.column_masks()]
        self._set(
            n_slots,
            payload_len,
            np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(len(payloads), payload_len),
            np.array([b.slot for b in batches], dtype=np.int64),
            offsets(np.array([len(b.users) for b in batches], dtype=np.int64)),
            np.array([u for b in batches for u in b.users], dtype=np.int64),
            offsets(np.array([b.transfer.cols for b in batches], dtype=np.int64)),
            np.array(masks, dtype=object if wide else np.int64),
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
        # one (column, row) pair per transfer entry; the set ones are members
        col_batch = np.repeat(np.arange(len(batch_slot)), column_ptr[1:] - column_ptr[:-1])
        pair_col, pair_row = segments((batch_ptr[1:] - batch_ptr[:-1])[col_batch])
        hit = ((column_masks[pair_col] >> pair_row) & 1).astype(bool)
        self.members = batch_users[batch_ptr[col_batch[pair_col[hit]]] + pair_row[hit]]
        self.member_ptr = offsets(np.bincount(pair_col[hit], minlength=len(column_masks)))
        encoded = xor_segments(payload_rows[self.members], self.member_ptr)
        self.outputs = encoded if outputs is None else outputs
        # output columns that differ from the XOR of their members' payloads:
        # none unless a hand-built frame is corrupt
        self.mismatched_outputs = np.flatnonzero((encoded != self.outputs).any(axis=1))
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


def _distinct_rows(rng: np.random.Generator, count: int, d: int, n: int) -> np.ndarray:
    """`count` independent uniform d-subsets of range(n), one ascending row each.

    Rows of d uniform slots are drawn in one block and only the rows that
    repeat a slot are drawn again, which keeps every accepted row uniform
    over the subsets.  When repeats are likely (d close to n) each row is
    one `choice` without replacement instead, so the loop always ends.
    """
    if math.prod((n - j) / n for j in range(d)) < _MIN_DISTINCT_PROB:
        return np.sort([rng.choice(n, d, replace=False) for _ in range(count)], axis=1)
    rows = np.sort(rng.integers(0, n, size=(count, d)), axis=1)
    redo = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
    while len(redo):
        fresh = np.sort(rng.integers(0, n, size=(len(redo), d)), axis=1)
        rows[redo] = fresh
        redo = redo[(fresh[:, 1:] == fresh[:, :-1]).any(axis=1)]
    return rows


def sample_frame(config: SystemConfig) -> Frame:
    """Draw one frame deterministically from the config seed."""
    n = config.slots
    users = config.users
    payload_len = config.payload_len
    rng = np.random.default_rng(config.seed)

    degrees = config.dist.degree_from_uniform(rng.random(users))
    ends = np.cumsum(degrees)
    flat = np.empty(int(ends[-1]), dtype=np.int64)  # every user's slots, user by user
    for d in np.unique(degrees).tolist():
        who = np.flatnonzero(degrees == d)
        flat[(ends[who] - d)[:, None] + np.arange(d)] = _distinct_rows(rng, len(who), d, n)
    payload_rows = np.frombuffer(rng.bytes(users * payload_len), dtype=np.uint8).reshape(users, payload_len)

    # occupancy: sorting by (slot, user) keeps each slot's users ascending;
    # the keys are distinct, so any sort gives this order
    owner = np.repeat(np.arange(users, dtype=np.int64), degrees)
    order = np.argsort(flat * users + owner)
    by_slot = flat[order]
    first = np.flatnonzero(np.diff(by_slot, prepend=-1))
    sizes = np.diff(first, append=len(by_slot))
    batch_slot = by_slot[first]
    batch_users = owner[order]
    del flat, owner, order, by_slot  # dropped once used, which keeps the peak memory of a draw low

    # transfer matrices, one block per collision size, then scattered back
    # to batch order as column counts and column masks
    drawn_at = []
    drawn = []
    for c in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == c)
        drawn_at.append(at)
        drawn += config.model.family(c).sample(rng, len(at))
    drawn_at = np.concatenate(drawn_at)
    n_cols = np.zeros(len(first), dtype=np.int64)
    n_cols[drawn_at] = [t.cols for t in drawn]
    column_ptr = offsets(n_cols)
    wide = bool((sizes[n_cols > 0] > 63).any())
    column_masks = np.zeros(int(column_ptr[-1]), dtype=object if wide else np.int64)
    col_batch, col_pos = segments(n_cols[drawn_at])
    column_masks[column_ptr[drawn_at][col_batch] + col_pos] = [m for t in drawn for m in t.column_masks()]

    return Frame._from_arrays(
        n, payload_len, payload_rows, batch_slot, offsets(sizes), batch_users, column_ptr, column_masks,
    )


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
