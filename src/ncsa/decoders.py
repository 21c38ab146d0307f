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

Both peelers run one strict-generation driver and differ only in the rule
that releases packets at a unit: a slot for `batched_bp`, a single output
equation for `ordinary_bp`.  An iteration sees only the knowledge available
when it started, which is the schedule the asymptotic recursion counts, so
results do not depend on the order units are visited.  The driver compares
the resolutions made within one pass; a unit that would contradict a packet
recovered in an earlier pass is not re-checked.

All payload XORs and elementary column operations are tallied in
`DecodeReport.field_ops`; per-frame work stays linear in the number of
transmissions because a batch is reprocessed only after its known set grows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .frames import Batch, Frame, equations
from .gf2 import rcef, select_rows, span_basis, units_in_span, xor_bytes


class FrameInconsistencyError(Exception):
    """Two resolutions disagreed about a packet's value; the frame is corrupt."""


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of one decoding run."""

    recovered: dict[int, bytes]
    preknown: frozenset[int]
    iterations: int
    per_iteration: tuple[int, ...]
    field_ops: int
    users: int

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


def _peel(
    frame: Frame,
    units: Sequence[tuple[tuple[int, ...], object]],
    release: Callable[..., tuple[Sequence[tuple[int, bytes]], int]],
    preknown: Mapping[int, bytes] | None,
    max_iters: int,
) -> DecodeReport:
    """Peel `units` in strict generations with the check-node rule `release`.

    A unit is a pair (member users, rule data).  Each pass visits the dirty
    units in index order and splits a unit's member positions into known
    and unknown.  A unit with no unknown member is done for good; any other
    goes to ``release(unit, known_pos, unknown_pos, known)``, which returns
    the ``(user, payload)`` pairs it resolves and the field operations it
    spent.  Recoveries are merged only after the pass, so every unit of a
    pass sees the knowledge of its start and the visiting order cannot
    matter.  A unit is revisited only when a later recovery touches one of
    its members.

    Raises FrameInconsistencyError when two resolutions of one pass
    disagree about a packet (impossible for frames from `sample_frame`).
    """
    known = _checked_preknown(frame, preknown)
    touching: dict[int, list[int]] = {}
    for idx, (members, _) in enumerate(units):
        for u in members:
            touching.setdefault(u, []).append(idx)

    ops = 0
    per_iteration: list[int] = []
    dirty = set(range(len(units)))
    done: set[int] = set()
    iterations = 0

    while dirty and iterations < max_iters:
        iterations += 1
        found: dict[int, bytes] = {}
        for idx in sorted(dirty):
            unit = units[idx]
            known_pos = []
            unknown_pos = []
            for pos, u in enumerate(unit[0]):
                (known_pos if u in known else unknown_pos).append(pos)
            if not unknown_pos:
                done.add(idx)
                continue
            released, spent = release(unit, known_pos, unknown_pos, known)
            ops += spent
            for user, value in released:
                prior = found.get(user)
                if prior is not None and prior != value:
                    raise FrameInconsistencyError(f"user {user} resolved to two different payloads")
                found[user] = value

        known.update(found)
        per_iteration.append(len(found))
        if not found:
            break
        dirty = {idx for u in found for idx in touching.get(u, ()) if idx not in done}

    return DecodeReport(
        recovered=known,
        preknown=frozenset(preknown or ()),
        iterations=iterations,
        per_iteration=tuple(per_iteration),
        field_ops=ops,
        users=frame.users,
    )


def _release_slot(
    unit: tuple[tuple[int, ...], Batch], known_pos: list[int], unknown_pos: list[int], known: dict[int, bytes],
) -> tuple[list[tuple[int, bytes]], int]:
    """Batched rule: substitute the known packets out of the outputs,
    column-reduce the unknown rows together with the outputs and release
    the user of every unit column."""
    users, batch = unit
    transfer = batch.transfer
    outputs = list(batch.outputs)
    ops = 0
    for pos in known_pos:
        payload = known[users[pos]]
        bit = 1 << pos
        for j, mask in enumerate(transfer.column_masks()):
            if mask & bit:
                outputs[j] = xor_bytes(outputs[j], payload)
                ops += 1
    reduced, outputs, spent = rcef(select_rows(transfer, unknown_pos), outputs)
    ops += spent
    released = []
    for j, mask in enumerate(reduced.column_masks()):
        if mask.bit_count() == 1:
            released.append((users[unknown_pos[mask.bit_length() - 1]], outputs[j]))
    return released, ops


def _release_single(
    unit: tuple[tuple[int, ...], bytes], known_pos: list[int], unknown_pos: list[int], known: dict[int, bytes],
) -> tuple[tuple[tuple[int, bytes], ...], int]:
    """Ordinary rule: an equation with exactly one unknown member releases it."""
    if len(unknown_pos) != 1:
        return (), 0
    members, value = unit
    for pos in known_pos:
        value = xor_bytes(value, known[members[pos]])
    return ((members[unknown_pos[0]], value),), len(known_pos)


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
    disagree (impossible for frames produced by `sample_frame`).
    """
    units = [(batch.users, batch) for batch in frame.batches if batch.transfer.cols]
    return _peel(frame, units, _release_slot, preknown, max_iters)


def ordinary_bp(
    frame: Frame,
    preknown: Mapping[int, bytes] | None = None,
    max_iters: int = 200,
) -> DecodeReport:
    """Classic peeling over individual output equations.

    Every output column of every batch is treated as a standalone XOR
    equation; an equation with exactly one unknown member releases it.
    Cross-column structure inside a batch is deliberately ignored, which is
    what makes this the weaker baseline.
    """
    return _peel(frame, equations(frame), _release_single, preknown, max_iters)


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
    row_of = {u: i for i, u in enumerate(core)}
    masks = []
    for members, _ in equations(frame):
        mask = 0
        for u in members:
            if u in row_of:
                mask |= 1 << row_of[u]
        if mask:
            masks.append(mask)
    solved = units_in_span(span_basis(masks), len(core))
    return frozenset(known).union(core[i] for i in solved)
