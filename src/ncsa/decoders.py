"""Iterative and oracle decoders over sampled frames.

Three recovery strategies, strictly ordered by power:

* `ordinary_bp` peels single-unknown output equations, ignoring that a
  slot's outputs form a joint linear system.
* `batched_bp` works per slot: substitute known packets out of the outputs,
  column-reduce the remaining rows of the transfer matrix, and harvest every
  unit column.  This is the decoder the asymptotic recursion describes.
* `ge_oracle` answers what any decoder could achieve by Gaussian
  elimination over the whole frame.  It peels with `batched_bp` first and
  then eliminates only the residual core of still-unknown users, which
  gives the same set as eliminating the frame's global matrix; like the
  peelers it raises FrameInconsistencyError on a corrupt frame.

Both peelers run one strict-generation driver over the frame's CSR arrays
and differ only in their units and wake test: a slot for `batched_bp`, a
single output equation for `ordinary_bp`.  Each unit keeps the bitmask of
its still-unknown rows, and what a unit releases is a pure function of its
transfer columns and that mask, memoised per decode, so only the first
unit with a given (shape, mask) runs an elimination.  A batch is woken when
a recovery clears one of its rows and it still has unknowns; an equation
only when its unknown count drops to one (the counter peel of invertible
Bloom lookup tables).  An iteration sees only the knowledge available when
it started, which is the schedule the asymptotic recursion counts, so
results do not depend on the order units are visited.  The driver compares
the resolutions made within one pass, and after the peel it checks the
recovered packets against the frame (`_check_against_frame`).

All payload XORs and elementary column operations of the per-unit
reductions are tallied in `DecodeReport.field_ops`; per-frame work stays
linear in the number of transmissions because a unit is revisited only
after its unknown mask shrinks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .frames import Frame, offsets, segments
from .gf2 import BitMatrix, rcef, select_rows, span_basis, units_in_span


class FrameInconsistencyError(Exception):
    """Two resolutions disagreed about a packet's value, or the recovered
    packets disagree with the frame; the frame is corrupt."""


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of one decoding run."""

    recovered: dict[int, bytes]
    preknown: frozenset[int]
    iterations: int
    per_iteration: tuple[int, ...]
    field_ops: int
    users: int
    # unit visits that reached the rule, and the rule evaluations that ran
    # an elimination (memo misses)
    visits: int = 0
    eliminations: int = 0

    @property
    def newly_recovered(self) -> frozenset[int]:
        return frozenset(self.recovered) - self.preknown

    @property
    def decoded_fraction(self) -> float:
        return len(self.recovered) / self.users if self.users else 1.0


def _checked_preknown(frame: Frame, preknown: Mapping[int, bytes] | None) -> dict[int, bytes]:
    known = dict(preknown or {})
    for user, payload in known.items():
        if not 0 <= user < frame.users:
            raise ValueError(f"preknown user {user} out of range")
        if len(payload) != frame.payload_len:
            raise ValueError("preknown payload has the wrong length")
    return known


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _one_bits(shift: np.ndarray) -> list[int]:
    """``1 << shift`` for each entry, as Python ints."""
    if len(shift) and shift.max() > 62:
        return [1 << s for s in shift.tolist()]
    return np.left_shift(1, shift).tolist()


def _slot_rule(rows: int, masks: tuple[int, ...], unknown: int) -> tuple[tuple, int]:
    """What a unit with `rows` rows, transfer columns `masks` and still-unknown
    rows `unknown` (a bitmask) releases, and the field operations it spends.

    The known rows are substituted out of the outputs (one operation per
    known row per column that holds it); the unknown rows are column-reduced
    together with the outputs, and every unit column releases its row.  The
    outputs are unit-vector byte strings, so each reduced output names the
    original columns whose XOR isolates the row.  Returns ``(released,
    spent)``; each released entry is ``(row, columns, known rows)``: the
    row's packet is the XOR of those columns' outputs and those known rows'
    packets.
    """
    known = ((1 << rows) - 1) & ~unknown
    spent = sum((m & known).bit_count() for m in masks)
    unknown_rows = _bits(unknown)
    width = (len(masks) + 7) // 8
    reduced, combos, ops = rcef(
        select_rows(BitMatrix(rows, len(masks), masks), unknown_rows),
        [(1 << j).to_bytes(width, "big") for j in range(len(masks))],
    )
    released = []
    for mask, combo in zip(reduced.column_masks(), combos):
        if mask.bit_count() == 1:
            columns = _bits(int.from_bytes(combo, "big"))
            isolating = 0
            for j in columns:
                isolating ^= masks[j]
            released.append((unknown_rows[mask.bit_length() - 1], columns, _bits(isolating & known)))
    return tuple(released), spent + ops


def _check_against_frame(frame: Frame, recovered: Mapping[int, bytes]) -> None:
    """Raise FrameInconsistencyError unless the recovered packets agree with
    the frame: each equals the packet the frame records for its user, and
    every output column whose members are all recovered re-encodes to the
    received output.

    Once the first part holds, re-encoding from the recovered packets is
    re-encoding from the frame's own, which the frame did when it was built:
    only its `mismatched_outputs` can fail.
    """
    if recovered:
        users = np.fromiter(recovered, dtype=np.int64, count=len(recovered))
        values = np.frombuffer(b"".join(recovered.values()), dtype=np.uint8)
        if not np.array_equal(values.reshape(len(users), frame.payload_len), frame.payload_rows[users]):
            raise FrameInconsistencyError("a recovered packet differs from the one its user sent")
    ptr = frame.member_ptr
    for e in frame.mismatched_outputs.tolist():
        if all(u in recovered for u in frame.members[ptr[e]:ptr[e + 1]].tolist()):
            raise FrameInconsistencyError(f"output {e} disagrees with the recovered packets of its members")


def _peel(
    frame: Frame,
    row_ptr: np.ndarray,
    row_users: np.ndarray,
    column_ptr: np.ndarray,
    shapes: list[tuple[int, tuple[int, ...]]],
    shape_of: list[int],
    preknown: Mapping[int, bytes] | None,
    max_iters: int,
    counter: bool,
) -> DecodeReport:
    """Peel units in strict generations with the memoised `_slot_rule`.

    Unit i holds the rows ``row_users[row_ptr[i]:row_ptr[i + 1]]`` and the
    transfer columns ``shapes[shape_of[i]]`` (row count and column masks),
    whose outputs are frame outputs ``column_ptr[i]:column_ptr[i + 1]``;
    units without columns take no part.  Each unit keeps the bitmask of its
    unknown rows.  A pass visits the woken units in index order and evaluates the
    rule on (shape, unknown mask), memoised per decode; a memo miss is one
    elimination.  Recoveries are merged only after the pass, so every unit
    of a pass sees the knowledge of its start and the visiting order cannot
    matter; merging clears the recovered rows' bits, and a unit is woken
    when its mask is then nonzero, or with `counter` exactly one bit (the
    only masks on which a single-column unit releases anything).  A pass
    with recoveries is always followed by one more.

    Raises FrameInconsistencyError when two resolutions of one pass
    disagree about a packet, or when the result disagrees with the frame
    (`_check_against_frame`).
    """
    recovered = _checked_preknown(frame, preknown)
    size = frame.payload_len
    blob = frame.outputs.tobytes()
    live = (column_ptr[1:] > column_ptr[:-1]).nonzero()[0]
    first_column = column_ptr.tolist()
    # each row of a live unit is an edge; sorted by user, a recovery finds
    # the (unit, row bit) pairs it clears
    counts = (row_ptr[1:] - row_ptr[:-1])[live]
    edge_unit, edge_row = segments(counts)
    edge_unit = live[edge_unit]
    edge_user = row_users[row_ptr[edge_unit] + edge_row]
    order = np.argsort(edge_user)  # the order of one user's edges does not matter
    by_user = offsets(np.bincount(edge_user, minlength=frame.users)).tolist()
    edge_unit = edge_unit[order].tolist()
    edge_bit = _one_bits(edge_row[order])
    del edge_user, edge_row, order
    users = row_users.tolist()
    ptr = row_ptr.tolist()
    unknown = [0] * (len(ptr) - 1)
    for i, full in zip(live.tolist(), _one_bits(counts)):
        unknown[i] = full - 1

    value: list[int | None] = [None] * frame.users
    for u, payload in recovered.items():
        value[u] = int.from_bytes(payload, "big")
        for e in range(by_user[u], by_user[u + 1]):
            unknown[edge_unit[e]] ^= edge_bit[e]
    if counter:
        woken = [i for i in live.tolist() if unknown[i] and not unknown[i] & (unknown[i] - 1)]
    else:
        woken = [i for i in live.tolist() if unknown[i]]

    memo: dict[int, tuple[tuple, int]] = {}  # keyed by unknown mask, then shape id, in one int
    shift = len(shapes).bit_length()
    ops = visits = eliminations = 0
    per_iteration: list[int] = []
    iterations = 0
    while len(live) and iterations < max_iters:
        iterations += 1
        found: dict[int, int] = {}
        for i in woken:
            mask = unknown[i]
            if not mask:
                continue
            visits += 1
            key = mask << shift | shape_of[i]
            rule = memo.get(key)
            if rule is None:
                rule = memo[key] = _slot_rule(*shapes[shape_of[i]], mask)
                eliminations += 1
            released, spent = rule
            ops += spent
            if not released:
                continue
            base = ptr[i]
            column = first_column[i]
            for row, columns, known_rows in released:
                v = 0
                for j in columns:
                    at = (column + j) * size
                    v ^= int.from_bytes(blob[at:at + size], "big")
                for r in known_rows:
                    v ^= value[users[base + r]]
                user = users[base + row]
                prior = found.get(user)
                if prior is None:
                    found[user] = v
                elif prior != v:
                    raise FrameInconsistencyError(f"user {user} resolved to two different payloads")

        per_iteration.append(len(found))
        if not found:
            break
        touched = set()
        for user, v in found.items():
            value[user] = v
            recovered[user] = v.to_bytes(size, "big")
            for e in range(by_user[user], by_user[user + 1]):
                i = edge_unit[e]
                mask = unknown[i] ^ edge_bit[e]
                unknown[i] = mask
                if mask and not (counter and mask & (mask - 1)):
                    touched.add(i)
        woken = sorted(touched)

    _check_against_frame(frame, recovered)
    return DecodeReport(
        recovered=recovered,
        preknown=frozenset(preknown or ()),
        iterations=iterations,
        per_iteration=tuple(per_iteration),
        field_ops=ops,
        users=frame.users,
        visits=visits,
        eliminations=eliminations,
    )


def batched_bp(
    frame: Frame,
    preknown: Mapping[int, bytes] | None = None,
    max_iters: int = 200,
) -> DecodeReport:
    """Peel the frame slot-by-slot through per-batch Gaussian reduction.

    Each processing of a batch substitutes every currently known member
    packet out of the outputs, reduces the unknown rows of the transfer
    matrix to column echelon form, applying the same column operations to
    the outputs, and reads off packets from unit columns.  Batches are
    revisited only when another recovery enlarged their known set.

    Raises FrameInconsistencyError when two resolutions of the same packet
    disagree or the recovered packets disagree with the frame (impossible
    for frames produced by `sample_frame`).
    """
    rows = np.diff(frame.batch_ptr).tolist()
    column_ptr = frame.column_ptr.tolist()
    masks = frame.column_masks.tolist()
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    shape_of = [
        ids.setdefault((rows[b], tuple(masks[column_ptr[b]:column_ptr[b + 1]])), len(ids))
        for b in range(len(rows))
    ]
    return _peel(
        frame, frame.batch_ptr, frame.batch_users, frame.column_ptr, list(ids), shape_of,
        preknown, max_iters, counter=False,
    )


def ordinary_bp(
    frame: Frame,
    preknown: Mapping[int, bytes] | None = None,
    max_iters: int = 200,
) -> DecodeReport:
    """Classic peeling over individual output equations.

    Every output column of every batch is treated as a standalone XOR
    equation over its members; an equation with exactly one unknown member
    releases it.  Cross-column structure inside a batch is deliberately
    ignored, which is what makes this the weaker baseline.  An equation is
    woken only when its unknown count drops to one: the counter peel of
    invertible Bloom lookup tables.
    """
    sizes = frame.member_ptr[1:] - frame.member_ptr[:-1]
    top = int(sizes.max()) if len(sizes) else 0
    shapes = [(n, ((1 << n) - 1,)) for n in range(top + 1)]  # shape id = member count
    return _peel(
        frame, frame.member_ptr, frame.members, np.arange(len(sizes) + 1), shapes, sizes.tolist(),
        preknown, max_iters, counter=True,
    )


def ge_oracle(
    frame: Frame,
    preknown: Mapping[int, bytes] | None = None,
    peeled: DecodeReport | None = None,
) -> frozenset[int]:
    """Users recoverable by full Gaussian elimination on the whole frame.

    User u is recoverable exactly when its unit vector lies in the span of
    the global matrix columns plus unit columns for pre-known users.  This
    bounds every iterative decoder from above.

    Computed by peeling first and eliminating only what is left
    (inactivation decoding): every user `batched_bp` recovers lies in that
    span, so only the residual core of still-unknown users goes through
    elimination, over transfer columns restricted to the core's rows.  The
    result is the same set as eliminating the whole frame; the bitmasks are
    only as wide as the core, and an empty core costs nothing beyond the
    peel.  Raises FrameInconsistencyError when the peel finds the frame
    corrupt.

    `peeled` is the report of a `batched_bp` run on the same frame and
    `preknown`, which then replaces the oracle's own peel.  Any such run
    will do, also one stopped early by `max_iters`: what it recovered lies
    in the span either way.  The corruption check is then
    the one that run made.
    """
    if peeled is None:
        peeled = batched_bp(frame, preknown)
    elif peeled.users != frame.users or peeled.preknown != frozenset(preknown or ()):
        raise ValueError("the peel report belongs to another frame or preknown set")
    known = peeled.recovered
    core = [u for u in range(frame.users) if u not in known]
    if not core:
        return frozenset(known)
    row_of = np.full(frame.users, -1, dtype=np.int64)
    row_of[core] = np.arange(len(core))
    column, _ = segments(np.diff(frame.member_ptr))
    rows = row_of[frame.members]
    in_core = rows >= 0
    masks: dict[int, int] = {}
    for e, r in zip(column[in_core].tolist(), rows[in_core].tolist()):
        masks[e] = masks.get(e, 0) | 1 << r
    solved = units_in_span(span_basis(masks.values()), len(core))
    return frozenset(known).union(core[i] for i in solved)
