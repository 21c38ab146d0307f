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

Both iterative decoders run in strict generations by default: an iteration
sees only the knowledge available when it started, so results do not depend
on the order batches are visited.  `eager=True` lets recoveries propagate
within an iteration; that can only accelerate convergence, never change the
final recovered set.

All payload XORs and elementary column operations are tallied in
`DecodeReport.field_ops`; per-frame work stays linear in the number of
transmissions because a batch is reprocessed only after its known set grows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .frames import Frame
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


def batched_bp(
    frame: Frame,
    preknown: Mapping[int, bytes] | None = None,
    max_iters: int = 200,
    eager: bool = False,
) -> DecodeReport:
    """Peel the frame slot-by-slot through per-batch Gaussian reduction.

    Each processing of a batch substitutes every currently known member
    packet out of the outputs, reduces the unknown rows of the transfer
    matrix to column echelon form, replays the same column operations on
    the outputs, and reads off packets from unit columns.  Batches are
    revisited only when another recovery enlarged their known set.

    Raises FrameInconsistencyError when two resolutions of the same packet
    disagree (impossible for frames produced by `sample_frame`).
    """
    known = _checked_preknown(frame, preknown)
    batches = frame.batches
    touching: dict[int, list[int]] = {}
    for idx, batch in enumerate(batches):
        if batch.transfer.cols == 0:
            continue
        for u in batch.users:
            touching.setdefault(u, []).append(idx)

    ops = 0
    per_iteration: list[int] = []
    dirty = set(idx for idx, b in enumerate(batches) if b.transfer.cols)
    done: set[int] = set()
    iterations = 0

    while dirty and iterations < max_iters:
        iterations += 1
        # Strict generations: recoveries are merged only after the pass, so
        # reading `known` mid-pass observes the start-of-pass snapshot.
        view = known
        found: dict[int, bytes] = {}
        for idx in sorted(dirty):
            batch = batches[idx]
            users = batch.users
            transfer = batch.transfer
            known_pos = []
            unknown_pos = []
            for pos, u in enumerate(users):
                (known_pos if u in view else unknown_pos).append(pos)
            if not unknown_pos:
                done.add(idx)
                continue
            outputs = list(batch.outputs)
            for pos in known_pos:
                payload = view[users[pos]]
                for j in range(transfer.cols):
                    if transfer.get(pos, j):
                        outputs[j] = xor_bytes(outputs[j], payload)
                        ops += 1
            reduced, trace = rcef(select_rows(transfer, unknown_pos))
            ops += len(trace.ops)
            values = trace.apply_to_payloads(outputs)
            ops += sum(1 for op in trace.ops if op[0] == "add")
            for j, mask in enumerate(reduced.column_masks()):
                if mask.bit_count() != 1:
                    continue
                user = users[unknown_pos[mask.bit_length() - 1]]
                value = values[j]
                prior = found.get(user)
                if prior is not None and prior != value:
                    raise FrameInconsistencyError(f"user {user} resolved to two different payloads")
                found[user] = value
                if eager and user not in known:
                    known[user] = value

        new = found  # holds only users unknown when their batch was processed
        if not eager:
            known.update(new)
        per_iteration.append(len(new))
        if not new:
            break
        dirty = set()
        for u in new:
            for idx in touching.get(u, ()):
                if idx not in done:
                    dirty.add(idx)

    return DecodeReport(
        recovered=known,
        preknown=frozenset(preknown or ()),
        iterations=iterations,
        per_iteration=tuple(per_iteration),
        field_ops=ops,
        users=frame.users,
    )


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
    known = _checked_preknown(frame, preknown)
    equations: list[tuple[tuple[int, ...], bytes]] = []
    for batch in frame.batches:
        transfer = batch.transfer
        for j in range(transfer.cols):
            members = tuple(batch.users[pos] for pos in range(transfer.rows) if transfer.get(pos, j))
            equations.append((members, batch.outputs[j]))

    touching: dict[int, list[int]] = {}
    for idx, (members, _) in enumerate(equations):
        for u in members:
            touching.setdefault(u, []).append(idx)

    ops = 0
    per_iteration: list[int] = []
    dirty = set(range(len(equations)))
    done: set[int] = set()
    iterations = 0

    while dirty and iterations < max_iters:
        iterations += 1
        view = known  # merged only after the pass; see batched_bp
        found: dict[int, bytes] = {}
        for idx in sorted(dirty):
            members, value = equations[idx]
            unknown = [u for u in members if u not in view]
            if not unknown:
                done.add(idx)
                continue
            if len(unknown) > 1:
                continue
            for u in members:
                if u in view:
                    value = xor_bytes(value, view[u])
                    ops += 1
            user = unknown[0]
            prior = found.get(user)
            if prior is not None and prior != value:
                raise FrameInconsistencyError(f"user {user} resolved to two different payloads")
            found[user] = value

        known.update(found)
        per_iteration.append(len(found))
        if not found:
            break
        dirty = set()
        for u in found:
            for idx in touching.get(u, ()):
                if idx not in done:
                    dirty.add(idx)

    return DecodeReport(
        recovered=known,
        preknown=frozenset(preknown or ()),
        iterations=iterations,
        per_iteration=tuple(per_iteration),
        field_ops=ops,
        users=frame.users,
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
    will do, strict or eager or stopped early by `max_iters`: what it
    recovered lies in the span either way.  The corruption check is then
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
    for batch in frame.batches:
        rows = [row_of.get(u) for u in batch.users]
        for col in batch.transfer.column_masks():
            mask = 0
            for pos, r in enumerate(rows):
                if r is not None and (col >> pos) & 1:
                    mask |= 1 << r
            if mask:
                masks.append(mask)
    solved = units_in_span(span_basis(masks), len(core))
    return frozenset(known).union(core[i] for i in solved)
