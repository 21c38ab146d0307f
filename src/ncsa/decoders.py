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

Both peelers run one strict-generation schedule over the frame's CSR
arrays: a unit is a slot for `batched_bp` and one output equation for
`ordinary_bp`, which wakes an equation only when one unknown is left (the
counter peel of invertible Bloom lookup tables).  What a unit releases is a
pure function of its transfer columns and its unknown-row mask, its rule.
`_peel` runs each generation as one pass of array operations over the
woken units, and keeps the rules in one `RuleTable` per thread.
Each batch's shape (row count, column count, column masks) is packed into
one int64 key, or a Python int past 63 bits; the shape keys, a pass's keys
and the edges by user are grouped by the same 16-bit radix sorts
(`frames.stable_order`), so each shape is named and the table probed once
per distinct key.  New int64 keys of at most two columns are split off by
the shape table's column counts and evaluated together in closed form
(`_pair_rules`), and rows are gathered with `np.take`; `_slot_rule`, which
runs `rcef`, is the reference of the closed form and serves the other keys.
Frames of at most `_SCALAR_ROWS` unit rows go through `_peel_scalar`
instead, unit by unit with Python ints, since a pass costs some fifty numpy
calls whatever its size; it names the frame's shapes itself and memoises
`_slot_rule` per process.  `_RULES_LIMIT` bounds both caches, and neither
shows in a report: the two paths give the same report, a function of the
frame, the preknown packets and `max_iters` only, whose `RecoveredPackets`
keep the recovered users and packets as arrays.  An iteration sees only the
knowledge available when it started, which is the schedule the asymptotic
recursion counts, so results do not depend on the order units are visited.
All payload XORs and column operations of the per-unit reductions are
tallied in `DecodeReport.field_ops`; work stays linear in the transmissions
because a unit is revisited only after its unknown mask shrinks.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from itertools import islice
from typing import AbstractSet, Iterator, Mapping

import numpy as np

from . import frames
from .frames import Frame, as_words, first_seen, offsets, segments, stable_order, xor_gather
from .gf2 import BitMatrix, mask_dtype, rcef, select_rows, span_basis, units_in_span

# a rule key holds the shape id in its low bits and the unknown mask above
_SHAPE_BITS = 32
_SHAPE_MASK = (1 << _SHAPE_BITS) - 1

# frames with at most this many unit rows peel unit by unit in Python
# (`_peel_scalar`): there a pass of array operations costs more in numpy
# calls than the Python loop spends on the whole frame
_SCALAR_ROWS = 200

# `_peel`'s table is replaced at the start of a decode once it holds more
# than this many shapes and rules, and `_peel_scalar`'s memo keeps this many
# rules: small frames reuse almost every rule, while large frames add new
# shapes and keys in every decode
_RULES_LIMIT = 1 << 14


class FrameInconsistencyError(Exception):
    """Two resolutions disagreed about a packet's value, or the recovered
    packets disagree with the frame; the frame is corrupt."""


class RecoveredPackets(Mapping[int, bytes]):
    """A decode's packets by user, read-only and kept as arrays: user
    ``users[i]`` has packet ``rows[i]``.  Iteration follows `users`;
    `bytes` objects are built only for the entries read."""

    __slots__ = ("users", "rows", "_at")

    def __init__(self, users: np.ndarray, rows: np.ndarray):
        users.flags.writeable = rows.flags.writeable = False
        self.users, self.rows = users, rows
        self._at: dict[int, int] | None = None  # each user's row, made on the first read

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[int]:
        return iter(self.users.tolist())

    def __getitem__(self, user: int) -> bytes:
        if self._at is None:
            self._at = dict(zip(self.users.tolist(), range(len(self.users))))
        return self.rows[self._at[user]].tobytes()

    def __repr__(self) -> str:
        return repr(dict(self))


class UserSet(AbstractSet[int]):
    """A read-only set of users kept as a boolean array over all users, so
    that its ints are built only when it is iterated; it compares and
    hashes as the frozenset of the same users."""

    __slots__ = ("mask", "_len")

    def __init__(self, mask: np.ndarray):
        mask.flags.writeable = False
        self.mask, self._len = mask, int(np.count_nonzero(mask))

    def __len__(self) -> int:
        return self._len

    def __contains__(self, user: object) -> bool:
        return isinstance(user, (int, np.integer)) and 0 <= user < len(self.mask) and bool(self.mask[user])

    def __iter__(self) -> Iterator[int]:
        return iter(self.mask.nonzero()[0].tolist())

    def __repr__(self) -> str:
        return repr(frozenset(self))

    __hash__ = AbstractSet._hash
    _from_iterable = frozenset  # what the set operators build


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of one decoding run."""

    recovered: Mapping[int, bytes]
    preknown: frozenset[int]
    iterations: int
    per_iteration: tuple[int, ...]
    field_ops: int
    users: int
    # unit visits, and the distinct rules this decode applied (eliminations)
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


def _slot_rule(rows: int, masks: tuple[int, ...], unknown: int) -> tuple[tuple, int]:
    """What a unit with `rows` rows, transfer columns `masks` and still-unknown
    rows `unknown` (a bitmask) releases, and the field operations it spends.

    The known rows are substituted out of the outputs (one operation per
    known row per column that holds it); the unknown rows are column-reduced
    by `rcef`, and every unit column releases its row.  Returns ``(released,
    spent)``; each released entry is ``(row, columns, known rows)``: the
    row's packet is the XOR of those columns' outputs and known rows' packets.
    """
    known = ((1 << rows) - 1) & ~unknown
    spent = sum((m & known).bit_count() for m in masks)
    unknown_rows = _bits(unknown)
    reduced, combos, ops = rcef(select_rows(BitMatrix(rows, len(masks), masks), unknown_rows))
    released = []
    for mask, combo in zip(reduced.column_masks(), combos):
        if mask.bit_count() == 1:
            columns = _bits(combo)
            isolating = 0
            for j in columns:
                isolating ^= masks[j]
            released.append((unknown_rows[mask.bit_length() - 1], columns, _bits(isolating & known)))
    return tuple(released), spent + ops


@functools.lru_cache(maxsize=_RULES_LIMIT)
def _cached_slot_rule(rows: int, masks: tuple[int, ...], unknown: int) -> tuple[tuple, int]:
    """`_slot_rule`, memoised for `_peel_scalar`."""
    return _slot_rule(rows, masks, unknown)


def _pair_rules(rows, cols, c1, c2, unknown):
    """`_slot_rule` on many keys of at most two columns at once, in closed
    form: int64 arrays of row counts, column counts, column masks (``c2`` is
    0 for one column) and unknown masks.

    `rcef`'s first pivot is the lowest unknown row: a swap (one operation)
    when only the second column holds it, an add (two) when both do.  Its
    second pivot is the lowest row of the new second column, added into the
    first (two) when that holds it too.  Returns per key the operations
    spent and its term count, and the terms in `RuleTable`'s layout, laid
    end to end.
    """
    known = ((1 << rows) - 1) & ~unknown
    a, b = c1 & unknown, c2 & unknown
    low = (a | b) & -(a | b)
    swap, add = (a & low == 0) & (b & low != 0), (a & b & low) != 0
    # the reduced columns and their combinations (bit j: column j)
    x0, k0 = np.where(swap, b, a), np.where(swap, 2, 1)
    x1, k1 = np.where(swap, a, a * add ^ b), np.where(swap, 1, 2 + add)
    back = (x0 & x1 & -x1) != 0
    x = np.stack([x0 ^ x1 * back, x1], axis=1)
    combo = np.stack([k0 ^ k1 * back, k1], axis=1)
    spent = np.bitwise_count(c1 & known) + np.bitwise_count(c2 & known) + swap + 2 * add + 2 * back
    # one entry per reduced column; bit t of `held` is term t: column t for
    # t < 2, then known row t - 2
    released = np.bitwise_count(x) == 1
    isolating = np.where(combo & 1, c1[:, None], 0) ^ np.where(combo & 2, c2[:, None], 0)
    t = np.arange(2 + int(rows.max(initial=0)))
    held = ((combo | (isolating & known[:, None]) << 2)[..., None] >> t & 1).astype(bool) & released[..., None]
    count = held.sum(axis=2)
    term = np.zeros((int(count.sum()), 2), np.int64)
    term[:, 0] = np.broadcast_to(np.where(t < 2, t, cols[:, None, None] + t - 2), held.shape)[held]
    count, released, firsts = count.ravel(), released.ravel(), cols.repeat(2)
    term[(count.cumsum() - count)[released], 1] = firsts[released] + np.bitwise_count(x.ravel()[released] - 1)
    return spent.astype(np.int64), count.reshape(-1, 2).sum(axis=1), term


class RuleTable:
    """Release rules by unit shape and unknown mask, as `_peel` reads them;
    `_peel` keeps one table per thread for the whole process (`_local`).

    `shape_ids` numbers (row count, column masks) shapes, and `lookup`
    finds the rules of keys, adding the keys not held yet.  Rule k is
    `_slot_rule` on one key, stored flat: ``rule[k]`` is (field operations
    spent, first term, term count), and a `term` row is (unit-local index,
    entry row), where column j of a shape with C columns is j and row r is
    C + r.  A released entry is a run of terms whose packets XOR to its
    row's packet; its first term names that row (at least 1, as C >= 1),
    the others hold 0.  Both arrays grow by doubling, so their rows past
    those in use are spare.  ``_shape[i]`` is shape i's `_shape_row`,
    written when the shape is named, from which `add` splits off and
    gathers the keys that `_pair_rules` evaluates, as arrays.
    """

    def __init__(self):
        self.shapes: dict[tuple[int, tuple[int, ...]], int] = {}
        self._named: list[tuple[int, tuple[int, ...]]] = []
        self._shape = np.zeros((16, 4), np.int64)  # per named shape: `_shape_row`
        self._rules: dict[int, int] = {}  # key: the unknown mask above the shape id
        self._terms = 0
        self.rule = np.zeros((16, 3), np.int64)
        self.term = np.zeros((64, 2), np.int64)

    def __len__(self) -> int:
        """The number of rules held."""
        return len(self._rules)

    @property
    def size(self) -> int:
        """The number of shapes and rules held, which the memory grows with."""
        return len(self.shapes) + len(self._rules)

    def shape_ids(self, shapes) -> np.ndarray:
        """The id of each ``(rows, column masks)`` shape, numbering new ones."""
        ids, named = self.shapes, self._named
        out = np.fromiter((ids.setdefault(shape, len(ids)) for shape in shapes), np.int64)
        if len(named) < len(ids):
            fresh = list(islice(ids, len(named), None))
            self._shape = _put(self._shape, len(named), [_shape_row(*shape) for shape in fresh])
            named.extend(fresh)
        return out

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rule of each key of an int64 or object array, and the rules
        of the distinct keys.  The keys are grouped (`first_seen`) by
        their unknown mask above a shape id only as wide as the shapes
        named, so the table is probed once per distinct key; the new keys
        are added (`add`) in order of first appearance."""
        compact = (keys >> _SHAPE_BITS) << (len(self.shapes) - 1).bit_length() | keys & _SHAPE_MASK
        first, index = first_seen(compact, int(compact.max(initial=0)) + 1)
        found = self._rules
        ids = np.fromiter((found.get(key, -1) for key in keys[first].tolist()), np.int64, len(first))
        new = (ids < 0).nonzero()[0]
        if len(new):
            ids[new] = self.add(keys[first[new]])
        return ids[index], ids

    def add(self, keys: np.ndarray) -> np.ndarray:
        """Evaluate and number `keys`, an int64 or object array of keys not
        held yet; their rule ids.  Int64 keys of at most two columns, split
        off by the column counts of their shapes' `_shape` rows, are
        evaluated together by `_pair_rules` and numbered first; the others
        go one by one through `_slot_rule`."""
        held = len(self._rules)
        shape = np.take(self._shape, (keys & _SHAPE_MASK).astype(np.int64), axis=0)
        pair = (shape[:, 1] <= 2) & (keys.dtype == np.int64)
        narrow, wide = pair.nonzero()[0], (~pair).nonzero()[0]
        self._add_pair_rules(keys[narrow], shape[narrow])
        self._add_slot_rules(keys[wide].tolist())
        ids = np.empty(len(keys), np.int64)
        ids[np.concatenate([narrow, wide])] = np.arange(held, held + len(keys))
        return ids

    def _add_slot_rules(self, keys: list[int]) -> None:
        """Number `keys` as the next rules, evaluated by `_slot_rule`."""
        rules, terms = [], []
        for key in keys:
            rows, masks = self._named[key & _SHAPE_MASK]
            released, spent = _slot_rule(rows, masks, key >> _SHAPE_BITS)
            first = self._terms + len(terms)
            for row, columns, known in released:
                local = [*columns, *(len(masks) + r for r in known)]
                terms += [(local[0], len(masks) + row), *((t, 0) for t in local[1:])]
            rules.append((spent, first, self._terms + len(terms) - first))
        self._add(keys, rules, terms)

    def _add_pair_rules(self, keys: np.ndarray, shape: np.ndarray) -> None:
        """Number `keys`, int64 keys of at most two columns whose shapes
        have the `_shape` rows `shape`, as the next rules, evaluated
        together by `_pair_rules`."""
        if not len(keys):
            return
        spent, sizes, terms = _pair_rules(*shape.T, keys >> _SHAPE_BITS)
        first = self._terms + sizes.cumsum() - sizes
        self._add(keys.tolist(), np.stack([spent, first, sizes], axis=1), terms)

    def _add(self, keys: list[int], rules, terms) -> None:
        """Number `keys` as the next rules, with their `rule` and `term` rows."""
        used = len(self._rules)
        self._rules.update(zip(keys, range(used, used + len(keys))))
        self.rule = _put(self.rule, used, rules)
        self.term = _put(self.term, self._terms, terms)
        self._terms += len(terms)


# `_peel`'s `RuleTable` as ``_local.rules``: one per thread, so no table is
# ever changed by two decodes at once
_local = threading.local()


def _shape_row(rows: int, masks: tuple[int, ...]) -> tuple[int, int, int, int]:
    """A shape's row of `RuleTable._shape`: its row count, its column count
    and its first two column masks (0 where it has fewer).  Past int64 masks
    the masks are stored as 0: such a shape's keys do not fit int64 either,
    so `_pair_rules` never reads them."""
    first = masks[:2] if mask_dtype(rows) is np.int64 else ()
    return (rows, len(masks), *first, *(0,) * (2 - len(first)))


def _put(table: np.ndarray, used: int, rows) -> np.ndarray:
    """`table` with `rows` written from row `used` on, doubled in length
    (into a new array) when they do not fit."""
    if used + len(rows) > len(table):
        grown = np.zeros((max(2 * len(table), used + len(rows)), table.shape[1]), table.dtype)
        grown[:used] = table[:used]
        table = grown
    if len(rows):
        table[used:used + len(rows)] = rows
    return table


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[i]:start[i] + count[i]``, laid end to end."""
    end = count.cumsum()
    return np.arange(end[-1] if len(end) else 0) + (start - end + count).repeat(count)


def _scatter_rows(buf: np.ndarray, dest: np.ndarray, value: np.ndarray) -> None:
    """``buf[dest] = value`` for C-contiguous 2-D uint8 arrays, written as
    one 1-D scatter of row-sized void items, which is several times faster
    than the 2-D fancy scatter.  Zero-width rows have no void view."""
    width = buf.shape[1]
    if width:
        buf.view(f"V{width}")[:, 0][dest] = value.view(f"V{width}")[:, 0]
    else:
        buf[dest] = value


def _differing_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The indices of the rows in which two C-contiguous 2-D uint8 arrays of
    one shape differ, compared through word views (`as_words`) without
    copying either; the rows are found only when some word differs."""
    differ = as_words(a) != as_words(b)
    return differ.any(axis=1).nonzero()[0] if differ.any() else np.empty(0, np.int64)


def _write_packets(buf: np.ndarray, offset: int, users: np.ndarray, value: np.ndarray, bound: int) -> np.ndarray:
    """Write row i of `value` to row ``offset + users[i]`` of `buf`, and
    return the distinct users (all below `bound`), ascending.

    Only a user named more than once can receive two different packets, so
    only its entries are read back, `frames._GATHER_BYTES` of rows at a
    time in the order given; one `np.bincount` of `users` finds them.  Raises
    FrameInconsistencyError naming the user of the first entry whose packet
    differs from the one its row holds after the write.
    """
    _scatter_rows(buf, offset + users, value)
    times = np.bincount(users, minlength=bound)
    check = np.take(times > 1, users).nonzero()[0]
    step = max(1, frames._GATHER_BYTES // max(1, buf.shape[1]))
    for start in range(0, len(check), step):
        part = check[start:start + step]
        clash = _differing_rows(np.take(buf, offset + users[part], axis=0), np.take(value, part, axis=0))
        if len(clash):
            raise FrameInconsistencyError(f"user {users[part[clash[0]]]} resolved to two different payloads")
    return (times > 0).nonzero()[0]  # a bool array's nonzero is about three times faster


def _batch_shape_ids(frame: Frame) -> tuple[list[tuple[int, tuple[int, ...]]], np.ndarray]:
    """The distinct ``(rows, column masks)`` shapes of the batches of
    `frame`, in order of first appearance, and each batch's index into them.

    Each batch's row count, column count and column masks are packed into
    one key, in fields as wide as the frame's largest values: int64, or
    Python ints (`mask_dtype`) when the fields need more bits.  The keys are
    grouped (`first_seen`), and only the distinct keys are unpacked.
    """
    rows = frame.batch_ptr[1:] - frame.batch_ptr[:-1]
    cols = frame.column_ptr[1:] - frame.column_ptr[:-1]
    top = int(cols.max(initial=0))
    row_bits, col_bits = int(rows.max(initial=0)).bit_length(), top.bit_length()
    mask_bits = int(frame.column_masks.max(initial=0)).bit_length()
    shift = row_bits + col_bits  # column j's mask starts at bit shift + j * mask_bits
    bits = shift + top * mask_bits
    key = cols.astype(mask_dtype(bits)) << row_bits
    key |= rows
    for j in range(top):
        at = (cols > j).nonzero()[0]
        key[at] |= frame.column_masks[frame.column_ptr[at] + j].astype(key.dtype) << (shift + j * mask_bits)
    first, index = first_seen(key, 1 << bits)
    row_field, col_field, field = (1 << row_bits) - 1, (1 << col_bits) - 1, (1 << mask_bits) - 1
    shapes = []
    for k in key[first].tolist():  # each distinct key, unpacked
        masks = (k >> (shift + j * mask_bits) & field for j in range(k >> row_bits & col_field))
        shapes.append((k & row_field, tuple(masks)))
    return shapes, index


def _check_against_frame(frame: Frame, users: np.ndarray, values: np.ndarray) -> None:
    """Raise FrameInconsistencyError unless the recovered packets agree with
    the frame: row i of `values` is the packet the frame records for user
    ``users[i]``, and every output column whose members are all recovered
    re-encodes to the received output.

    Once the first part holds, re-encoding from the recovered packets is
    re-encoding from the frame's own, which the frame did when it was built:
    only its `mismatched_outputs` can fail.
    """
    if len(_differing_rows(values, np.take(frame.payload_rows, users, axis=0))):
        raise FrameInconsistencyError("a recovered packet differs from the one its user sent")
    known = np.zeros(frame.users, bool)
    known[users] = True
    ptr = frame.member_ptr
    for e in frame.mismatched_outputs.tolist():
        if known[frame.members[ptr[e]:ptr[e + 1]]].all():
            raise FrameInconsistencyError(f"output {e} disagrees with the recovered packets of its members")


def _report(frame: Frame, users: np.ndarray, values: np.ndarray, preknown: Mapping[int, bytes] | None,
            iterations: int, per_iteration: list[int], ops: int, visits: int, eliminations: int) -> DecodeReport:
    """A peel's report, once its packets (row i of `values` for user
    ``users[i]``) pass `_check_against_frame`."""
    _check_against_frame(frame, users, values)
    return DecodeReport(
        recovered=RecoveredPackets(users, values),
        preknown=frozenset(preknown or ()),
        iterations=iterations,
        per_iteration=tuple(per_iteration),
        field_ops=ops,
        users=frame.users,
        visits=visits,
        eliminations=eliminations,
    )


def _peel(
    frame: Frame,
    row_ptr: np.ndarray,
    row_users: np.ndarray,
    column_ptr: np.ndarray,
    shapes: tuple[list[tuple[int, tuple[int, ...]]], np.ndarray],
    preknown: Mapping[int, bytes] | None,
    max_iters: int,
    counter: bool,
) -> DecodeReport:
    """Peel units in strict generations, each pass one run of array operations.

    Unit i holds the rows ``row_users[row_ptr[i]:row_ptr[i + 1]]`` and the
    transfer columns of shape ``distinct[index[i]]``, where `shapes` is
    ``(distinct, index)``, whose outputs are frame outputs
    ``column_ptr[i]:column_ptr[i + 1]``; units without columns take no part.
    The shapes are named in the thread's table (`_local`), which is first
    replaced by an empty one if it holds more than `_RULES_LIMIT` shapes
    and rules.  A
    unit's key is its unknown-row mask above its shape id (a Python int
    past 63 bits); the caller hands `shapes` over, and it is dropped once
    the keys are built.  A pass looks up the rule of every woken unit's key,
    and each distinct rule the decode applies is one elimination.  One
    buffer holds the outputs, then one row per user, so one `xor_gather`
    computes every packet the pass releases in a bounded working set; the
    packets are scattered to their users, and only the users released more
    than once in the pass are read back to find conflicts (`_write_packets`).
    Recoveries are merged only after the pass, so every unit of a pass sees
    the knowledge of its start: their rows' bits are cleared over the
    user-to-edge CSR, which wakes each touched unit whose mask is still
    nonzero, or with `counter` exactly one bit (the only masks on which a
    single-column unit releases anything).  A pass with recoveries is always
    followed by one more.  The set-up arrays that only build the keys, edges
    and unit rows are dropped before the passes, and the buffer before the
    check against the frame.

    Raises FrameInconsistencyError when two resolutions of one pass
    disagree about a packet, or when the result disagrees with the frame
    (`_check_against_frame`).
    """
    known = _checked_preknown(frame, preknown)
    rules = getattr(_local, "rules", None)
    if rules is None or rules.size > _RULES_LIMIT:
        rules = _local.rules = RuleTable()
    outputs = len(frame.outputs)
    size = frame.payload_len
    rows = row_ptr[1:] - row_ptr[:-1]
    cols = column_ptr[1:] - column_ptr[:-1]
    live = cols > 0
    full = live.astype(mask_dtype(int(rows[live].max(initial=0)) + _SHAPE_BITS))
    full <<= _SHAPE_BITS
    key = full << rows
    key -= full
    key += rules.shape_ids(shapes[0])[shapes[1]]
    del shapes  # freed here, as the callers pass it inline
    # every row is an edge, kept as its unit and its key bit's position (a
    # byte); grouped by user, a recovery finds the bits it clears
    owner, pos = segments(rows)
    order = stable_order(row_users, frame.users)
    edge_unit = owner[order]
    edge_shift = (pos[order] + _SHAPE_BITS).astype(np.min_scalar_type(int(rows.max(initial=0)) + _SHAPE_BITS))
    degree = np.bincount(row_users, minlength=frame.users)
    by_user = offsets(degree)
    # local index t of unit i is buffer row local[base[i] + t]: its columns'
    # outputs, then its rows' users
    base = row_ptr[:-1] + column_ptr[:-1]
    local = np.empty(outputs + len(row_users), np.int64)
    at = row_ptr[:-1].repeat(cols)
    at += np.arange(outputs)
    local[at] = np.arange(outputs)
    at = column_ptr[1:][owner]
    at += np.arange(len(row_users))
    local[at] = outputs + row_users
    woken = live.nonzero()[0]
    # dropped once the keys, edges and `local` are built
    del rows, cols, full, owner, pos, order, at
    buf = np.zeros((outputs + frame.users, size), np.uint8)
    buf[:outputs] = frame.outputs

    def distinct(items: np.ndarray, bound: int) -> np.ndarray:
        """The distinct entries, all below `bound`, ascending."""
        seen = np.zeros(bound, bool)
        seen[items] = True
        return seen.nonzero()[0]

    def clear(users: np.ndarray) -> np.ndarray:
        """Clear the bits of newly known users; the units that held them."""
        at = _ranges(by_user[users], degree[users])
        units = edge_unit[at]
        # subtracting a bit clears it, as each (unit, row) bit is set once in
        # the initial key and cleared once: for a pre-known user at the
        # start, otherwise in the pass that first releases the user, which
        # was unknown when that pass began.  numpy has a fast indexed loop
        # for `subtract.at` and none for `bitwise_xor.at`
        np.subtract.at(key, units, live[units].astype(key.dtype) << edge_shift[at])
        return units

    def wake(units: np.ndarray) -> np.ndarray:
        unknowns = np.bitwise_count(key[units] >> _SHAPE_BITS)
        return units[unknowns == 1 if counter else unknowns > 0]

    def release(units: np.ndarray) -> tuple[int, np.ndarray | None]:
        """Look up the rules of `units`, adding them to `applied`; the field
        operations spent, and the users released, distinct and ascending
        (None when nothing is).  The packets are XORed from the buffer by
        `xor_gather` and written to their users' rows by `_write_packets`;
        the pass's arrays are freed by the time this returns."""
        rule, distinct_rules = rules.lookup(key[units])
        applied.update(distinct_rules.tolist())
        spec = np.take(rules.rule, rule, axis=0)
        spent = int(spec[:, 0].sum())
        term = np.take(rules.term, _ranges(spec[:, 1], spec[:, 2]), axis=0)
        if not len(term):
            return spent, None
        where = base[units].repeat(spec[:, 2])
        del rule, spec
        opens = term[:, 1].nonzero()[0]
        dest = local[where[opens] + term[opens, 1]]
        where += term[:, 0]  # each term's buffer row, in place
        del term
        value = xor_gather(buf, local[where], np.append(opens, len(where)))
        del where
        return spent, _write_packets(buf, outputs, dest - outputs, value, frame.users)

    pre = np.fromiter(known, np.int64, len(known))
    if len(pre):
        buf[outputs + pre] = np.frombuffer(b"".join(known.values()), np.uint8).reshape(len(pre), size)
        clear(pre)
    passes = max_iters if len(woken) else 0
    woken = wake(woken)
    found = [pre]
    applied: set[int] = set()
    ops = visits = iterations = 0
    per_iteration: list[int] = []
    while iterations < passes:
        iterations += 1
        spent, fresh = release(woken)
        visits += len(woken)
        ops += spent
        if fresh is None:
            per_iteration.append(0)
            break
        per_iteration.append(len(fresh))
        found.append(fresh)
        woken = distinct(wake(clear(fresh)), len(key))

    users = np.concatenate(found)
    values = np.take(buf, outputs + users, axis=0)
    del buf  # freed before the check against the frame
    return _report(frame, users, values, preknown, iterations, per_iteration, ops, visits, len(applied))


def _peel_scalar(
    frame: Frame,
    row_ptr: np.ndarray,
    row_users: np.ndarray,
    column_ptr: np.ndarray,
    shapes: tuple[list[tuple[int, tuple[int, ...]]], np.ndarray],
    preknown: Mapping[int, bytes] | None,
    max_iters: int,
    counter: bool,
) -> DecodeReport:
    """`_peel` unit by unit, with packets as Python ints, for small frames.

    The units and schedule are `_peel`'s, and so is the report: a pass
    visits the woken units in index order and merges their recoveries after
    it, which clears the recovered rows' bits and wakes the touched units
    as `_peel` does.  A key holds the unit's index into the frame's own
    shapes, and each distinct key's rule is kept for the decode, taken from
    `_cached_slot_rule`.  Raises FrameInconsistencyError in the same cases.
    """
    known = _checked_preknown(frame, preknown)
    size = frame.payload_len
    blob = frame.outputs.tobytes()
    ptr, users, first_column = row_ptr.tolist(), row_users.tolist(), column_ptr.tolist()
    distinct, shapes = shapes[0], shapes[1].tolist()
    live = [i for i in range(len(shapes)) if first_column[i + 1] > first_column[i]]
    unknown = [0] * len(shapes)
    edges: dict[int, list[tuple[int, int]]] = {}  # per user, the (unit, row bit) of each of its rows
    for i in live:
        unknown[i] = (1 << ptr[i + 1] - ptr[i]) - 1
        for r in range(ptr[i], ptr[i + 1]):
            edges.setdefault(users[r], []).append((i, 1 << r - ptr[i]))
    value: dict[int, int] = {}

    def merge(found: dict[int, int]) -> set[int]:
        """Record the found packets and clear their bits; the touched units."""
        touched = set()
        for user, v in found.items():
            value[user] = v
            for i, bit in edges.get(user, ()):
                unknown[i] ^= bit
                touched.add(i)
        return touched

    def wakes(i: int) -> bool:
        mask = unknown[i]
        return mask > 0 and not (counter and mask & (mask - 1))

    merge({u: int.from_bytes(p, "big") for u, p in known.items()})
    woken = list(filter(wakes, live))
    rules: dict[int, tuple[tuple, int]] = {}
    ops = visits = iterations = 0
    per_iteration: list[int] = []
    while live and iterations < max_iters:
        iterations += 1
        found: dict[int, int] = {}
        for i in woken:
            key = unknown[i] << _SHAPE_BITS | shapes[i]
            if key not in rules:
                rules[key] = _cached_slot_rule(*distinct[shapes[i]], unknown[i])
            released, spent = rules[key]
            visits += 1
            ops += spent
            base, column = ptr[i], first_column[i]
            for row, columns, known_rows in released:
                v = 0
                for j in columns:
                    at = (column + j) * size
                    v ^= int.from_bytes(blob[at:at + size], "big")
                for r in known_rows:
                    v ^= value[users[base + r]]
                user = users[base + row]
                if found.setdefault(user, v) != v:
                    raise FrameInconsistencyError(f"user {user} resolved to two different payloads")
        per_iteration.append(len(found))
        if not found:
            break
        woken = sorted(filter(wakes, merge(found)))

    users = np.fromiter(value, np.int64, len(value))
    packets = b"".join(v.to_bytes(size, "big") for v in value.values())
    return _report(frame, users, np.frombuffer(packets, np.uint8).reshape(len(users), size), preknown,
                   iterations, per_iteration, ops, visits, len(rules))


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
    peel = _peel if len(frame.batch_users) > _SCALAR_ROWS else _peel_scalar
    return peel(
        frame, frame.batch_ptr, frame.batch_users, frame.column_ptr, _batch_shape_ids(frame),
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
    top = int(np.diff(frame.member_ptr).max(initial=0))
    shapes = [(n, ((1 << n) - 1,)) for n in range(top + 1)]
    peel = _peel if len(frame.members) > _SCALAR_ROWS else _peel_scalar
    return peel(
        frame, frame.member_ptr, frame.members, np.arange(len(frame.member_ptr)),
        (shapes, np.diff(frame.member_ptr)), preknown, max_iters, counter=True,
    )


def ge_oracle(frame: Frame, preknown: Mapping[int, bytes] | None = None,
              peeled: DecodeReport | None = None) -> UserSet:
    """Users recoverable by full Gaussian elimination on the whole frame.

    User u is recoverable exactly when its unit vector lies in the span of
    the global matrix columns plus unit columns for pre-known users.  This
    bounds every iterative decoder from above.

    Computed by peeling first and eliminating only what is left: every
    user `batched_bp` recovers lies in that span, so only the residual core
    of still-unknown users goes through elimination.  Each output column,
    restricted to the core's rows, becomes one Python int bitmask;
    `span_basis` reduces all of them densely, and `units_in_span` reads off
    the core users whose unit vectors the basis spans.  The result is the
    same set as eliminating the whole frame, as a `UserSet` marked from the
    peel's user array; the bitmasks are only as wide as the core, and an
    empty core costs nothing beyond the peel.  Raises
    FrameInconsistencyError when the peel finds the frame corrupt.

    `peeled` is the report of a `batched_bp` run on the same frame and
    `preknown`, which then replaces the oracle's own peel.  Any such run
    will do, also one stopped early by `max_iters`: what it recovered lies
    in the span either way.  The corruption check is then the one that run
    made.
    """
    if peeled is None:
        peeled = batched_bp(frame, preknown)
    elif peeled.users != frame.users or peeled.preknown != frozenset(preknown or ()):
        raise ValueError("the peel report belongs to another frame or preknown set")
    known = np.zeros(frame.users, bool)
    known[peeled.recovered.users] = True
    core = (~known).nonzero()[0]
    if not len(core):
        return UserSet(known)
    # each output column as a bitmask over the core's rows (-1: not in the core)
    row = np.full(frame.users, -1)
    row[core] = np.arange(len(core))
    rows, ptr = row[frame.members].tolist(), frame.member_ptr.tolist()
    masks = (sum(1 << r for r in rows[ptr[e]:ptr[e + 1]] if r >= 0) for e in range(len(ptr) - 1))
    known[core[units_in_span(span_basis(masks), len(core))]] = True
    return UserSet(known)
