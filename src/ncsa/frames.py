"""Frame-level Monte Carlo: who transmits where, and what each slot yields.

A frame is n slots; each of K users picks a degree from the distribution,
picks that many distinct slots uniformly, and repeats its packet in them.
Each slot with transmitters draws a transfer matrix from the model's family
for its collision size and exposes the decoded combinations.

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

from .gf2 import BitMatrix, combine
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


@dataclass(frozen=True)
class Frame:
    """A fully drawn frame with ground-truth payloads.

    The batches are the frame's only record of who transmitted where: one
    per occupied slot, in ascending slot order, and a user's slots are the
    batches that list it.
    """

    n_slots: int
    payload_len: int
    payloads: tuple[bytes, ...]
    batches: tuple[Batch, ...]

    @property
    def users(self) -> int:
        return len(self.payloads)


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
    # Each temporary is dropped once used, which keeps the peak memory of a
    # frame draw below that of drawing it user by user.
    blob = rng.bytes(users * payload_len)
    payloads = tuple(blob[i * payload_len:(i + 1) * payload_len] for i in range(users))
    del blob

    # occupancy: a stable sort by slot keeps each slot's users ascending.
    # One Python int per user, shared by all of that user's transmissions.
    order = np.argsort(flat, kind="stable")
    by_slot = flat[order]
    first = np.flatnonzero(np.diff(by_slot, prepend=-1))
    sizes = np.diff(first, append=len(by_slot))
    slot_of = by_slot[first].tolist()
    occupant_list = np.repeat(np.arange(users, dtype=object), degrees)[order].tolist()
    del flat, order, by_slot

    transfers: list[BitMatrix | None] = [None] * len(first)
    for c in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == c)
        for k, transfer in zip(at.tolist(), config.model.family(c).sample(rng, len(at))):
            transfers[k] = transfer

    bounds = [*first.tolist(), len(occupant_list)]
    batches = []
    for k, t in enumerate(slot_of):
        slot_users = tuple(occupant_list[bounds[k]:bounds[k + 1]])
        transfer = transfers[k]
        outputs = tuple(combine([payloads[u] for u in slot_users], transfer))
        batches.append(Batch(slot=t, users=slot_users, transfer=transfer, outputs=outputs))

    return Frame(
        n_slots=n,
        payload_len=payload_len,
        payloads=payloads,
        batches=tuple(batches),
    )


def slot_degree_histogram(frame: Frame) -> np.ndarray:
    """Counts of slots by collision size; index d = number of slots with d transmitters.

    Every occupied slot has a batch, so the slots without one are idle.
    """
    sizes = np.fromiter((len(batch.users) for batch in frame.batches), dtype=np.int64, count=len(frame.batches))
    hist = np.bincount(sizes, minlength=1)
    hist[0] = frame.n_slots - len(frame.batches)
    return hist


def equations(frame: Frame) -> list[tuple[tuple[int, ...], bytes]]:
    """Every output column of every batch as (member users, output payload),
    batch by batch and column by column.

    Plain tuples of ints and bytes, which the garbage collector stops
    tracking, so tens of thousands of equations do not slow collections.
    """
    lifted = []
    for batch in frame.batches:
        users = batch.users
        everyone = (1 << len(users)) - 1
        for mask, value in zip(batch.transfer.column_masks(), batch.outputs):
            members = users if mask == everyone else tuple([u for pos, u in enumerate(users) if mask >> pos & 1])
            lifted.append((members, value))
    return lifted


def global_matrix(frame: Frame) -> BitMatrix:
    """Stack every batch's transfer columns into one users x outputs matrix.

    Column (t, j) has a 1 in row u when user u's packet enters output j of
    slot t.  Rank queries against this matrix bound what any decoder could
    ever recover from the frame.
    """
    masks = [sum(1 << u for u in members) for members, _ in equations(frame)]
    return BitMatrix(frame.users, len(masks), masks)
