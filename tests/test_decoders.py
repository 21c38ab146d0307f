import dataclasses
import functools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncsa.cli
import ncsa.decoders
import ncsa.frames
from ncsa.cli import main
from ncsa.decoders import (
    DecodeReport,
    FrameInconsistencyError,
    RecoveredPackets,
    RuleTable,
    UserSet,
    _check_against_frame,
    batched_bp,
    ge_oracle,
    ordinary_bp,
)
from ncsa.frames import Batch, DegreeDistribution, Frame, SystemConfig, global_matrix, sample_frame
from ncsa.gf2 import BitMatrix, combine, rcef, select_rows
from ncsa.pnc import PncModel, example_family, gamma_set
from test_cli import SIMULATE_TEST_MODEL
from test_frames import DIFFERENTIAL_CASES, WIDE_MODEL, differential_frame


def xor(a, b):
    """XOR of two equal-length byte strings."""
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def frame_from_batches(payloads, batch_specs, n_slots=None):
    """Hand-build a frame: batch_specs = [(slot, users, transfer_rows)]."""
    payloads = tuple(payloads)
    batches = []
    top_slot = 0
    for slot, users, rows in batch_specs:
        top_slot = max(top_slot, slot)
        transfer = BitMatrix.from_rows(rows) if rows and rows[0] else BitMatrix(len(users), 0)
        outputs = tuple(combine([payloads[u] for u in users], transfer))
        batches.append(Batch(slot=slot, users=tuple(users), transfer=transfer, outputs=outputs))
    return Frame(
        n_slots=n_slots or top_slot + 1,
        payload_len=len(payloads[0]) if payloads else 0,
        payloads=payloads,
        batches=tuple(batches),
    )


def reference_ge_oracle(frame, preknown=None):
    """Plain elimination over the whole global matrix: the oracle's reference.

    User u is recoverable exactly when its unit vector lies in the span of
    the global matrix columns plus unit columns for pre-known users.
    """
    basis = {}

    def insert(mask):
        while mask:
            low = mask & -mask
            if low in basis:
                mask ^= basis[low]
            else:
                basis[low] = mask
                return

    for mask in global_matrix(frame).column_masks():
        insert(mask)
    for u in preknown or ():
        insert(1 << u)

    out = []
    for u in range(frame.users):
        mask = 1 << u
        while mask:
            low = mask & -mask
            if low not in basis:
                break
            mask ^= basis[low]
        if not mask:
            out.append(u)
    return frozenset(out)


def reference_batched_bp(frame, preknown=None, max_iters=200):
    """Per-slot peeling written out as its own strict-generation loop: the
    reference `batched_bp` is checked against.  `preknown` is not validated."""
    known = dict(preknown or {})
    batches = frame.batches
    touching = {}
    for idx, batch in enumerate(batches):
        if batch.transfer.cols == 0:
            continue
        for u in batch.users:
            touching.setdefault(u, []).append(idx)

    ops = 0
    per_iteration = []
    dirty = set(idx for idx, b in enumerate(batches) if b.transfer.cols)
    done = set()
    iterations = 0

    while dirty and iterations < max_iters:
        iterations += 1
        view = known  # merged only after the pass
        found = {}
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
                        outputs[j] = xor(outputs[j], payload)
                        ops += 1
            reduced, combos, spent = rcef(select_rows(transfer, unknown_pos))
            values = combine(outputs, BitMatrix(transfer.cols, transfer.cols, combos))
            ops += spent
            for j, mask in enumerate(reduced.column_masks()):
                if mask.bit_count() != 1:
                    continue
                user = users[unknown_pos[mask.bit_length() - 1]]
                value = values[j]
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


def reference_ordinary_bp(frame, preknown=None, max_iters=200):
    """Single-equation peeling written out as its own strict-generation loop:
    the reference `ordinary_bp` is checked against.  `preknown` is not
    validated."""
    known = dict(preknown or {})
    equations = []
    for batch in frame.batches:
        transfer = batch.transfer
        for j in range(transfer.cols):
            members = tuple(batch.users[pos] for pos in range(transfer.rows) if transfer.get(pos, j))
            equations.append((members, batch.outputs[j]))

    touching = {}
    for idx, (members, _) in enumerate(equations):
        for u in members:
            touching.setdefault(u, []).append(idx)

    ops = 0
    per_iteration = []
    dirty = set(range(len(equations)))
    done = set()
    iterations = 0

    while dirty and iterations < max_iters:
        iterations += 1
        view = known  # merged only after the pass
        found = {}
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
                    value = xor(value, view[u])
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


# values of `_SCALAR_ROWS` that send every frame down one peel: the array
# passes of `_peel` or the unit-by-unit `_peel_scalar`
PEEL_PATHS = {"arrays": -1, "scalar": math.inf}


@contextmanager
def peel_path(name):
    with mock.patch.object(ncsa.decoders, "_SCALAR_ROWS", PEEL_PATHS[name]):
        yield


@contextmanager
def empty_rule_caches(limit=None):
    """Run with an empty `_peel` table in this thread and an empty
    `_peel_scalar` memo of `limit` rules (by default `_RULES_LIMIT`), which
    it yields; the module's own caches are back in place afterwards."""
    memo = functools.lru_cache(maxsize=limit or ncsa.decoders._RULES_LIMIT)(
        ncsa.decoders._cached_slot_rule.__wrapped__)
    with mock.patch.object(ncsa.decoders._local, "rules", RuleTable(), create=True), \
            mock.patch.object(ncsa.decoders, "_cached_slot_rule", memo):
        yield memo


def assert_same_peels(frame, pre=None, max_iters=200):
    """Both peelers report exactly what their references report, down
    either path, and the two paths report the same in full."""
    for peel, reference in ((batched_bp, reference_batched_bp), (ordinary_bp, reference_ordinary_bp)):
        want = reference(frame, pre, max_iters)
        reports = []
        for path in PEEL_PATHS:
            with peel_path(path):
                got = peel(frame, pre, max_iters)
            assert got.recovered == want.recovered
            assert got.iterations == want.iterations
            assert got.per_iteration == want.per_iteration
            assert got.field_ops == want.field_ops
            assert got.preknown == want.preknown
            reports.append(got)
        assert reports[0] == reports[1]


def corrupted_two_slot_frame():
    """User 0 alone in two slots, the second slot claiming a different value."""
    payloads = [b"x"]
    frame = frame_from_batches(payloads, [(0, (0,), [[1]]), (1, (0,), [[1]])])
    bad = Batch(slot=1, users=(0,), transfer=frame.batches[1].transfer, outputs=(b"y",))
    return Frame(
        n_slots=frame.n_slots,
        payload_len=frame.payload_len,
        payloads=frame.payloads,
        batches=(frame.batches[0], bad),
    )


def cross_pass_corrupted_frame():
    """User 0 alone in slot 0, whose output claims `x`; users 0 and 1 on one
    all-ones column in slot 1.  The outputs alone are consistent (user 0 = x,
    user 1 = r), but user 0 sent `z`."""
    frame = frame_from_batches([b"z", b"p"], [(0, (0,), [[1]]), (1, (0, 1), [[1], [1]])])
    bad = Batch(slot=0, users=(0,), transfer=frame.batches[0].transfer, outputs=(b"x",))
    return Frame(n_slots=2, payload_len=1, payloads=frame.payloads, batches=(bad, frame.batches[1]))


def unused_corrupt_output_frame():
    """Users 0 and 2 each alone in a slot, plus a slot summing both whose
    output is wrong.  Peeling never needs the sum, so only re-encoding it
    from the recovered packets shows the corruption."""
    frame = frame_from_batches([b"a", b"b", b"c"], [(0, (0,), [[1]]), (1, (2,), [[1]]), (2, (0, 2), [[1], [1]])])
    bad = Batch(slot=2, users=(0, 2), transfer=frame.batches[2].transfer, outputs=(b"q",))
    return Frame(n_slots=3, payload_len=1, payloads=frame.payloads, batches=(*frame.batches[:2], bad))


def four_user_frame():
    payloads = [bytes([7 * (i + 1)]) * 3 for i in range(4)]
    rows = [[1, 0], [0, 1], [1, 1], [1, 1]]
    return frame_from_batches(payloads, [(0, (0, 1, 2, 3), rows)])


# --- worked example ----------------------------------------------------------


def test_batched_recovers_second_packet_given_first():
    frame = four_user_frame()
    report = batched_bp(frame, preknown={0: frame.payloads[0]})
    assert report.newly_recovered == {1}
    assert report.recovered[1] == frame.payloads[1]
    assert report.preknown == {0}
    assert set(report.recovered) == {0, 1}
    assert report.field_ops > 0


def test_ordinary_recovers_nothing_on_the_same_batch():
    frame = four_user_frame()
    report = ordinary_bp(frame, preknown={0: frame.payloads[0]})
    assert report.newly_recovered == frozenset()
    assert set(report.recovered) == {0}


def test_no_preknown_leaves_the_batch_stuck():
    frame = four_user_frame()
    assert batched_bp(frame).recovered == {}
    assert ordinary_bp(frame).recovered == {}
    assert ge_oracle(frame) == frozenset()


def test_oracle_with_first_packet_known():
    frame = four_user_frame()
    assert ge_oracle(frame, preknown={0: frame.payloads[0]}) == {0, 1}


# --- small anchors ----------------------------------------------------------


def test_identity_batch_recovers_both():
    payloads = [b"ab", b"cd"]
    frame = frame_from_batches(payloads, [(0, (0, 1), [[1, 0], [0, 1]])])
    report = batched_bp(frame)
    assert set(report.recovered) == {0, 1}
    assert report.per_iteration[0] == 2  # both fall out of the first pass
    assert report.recovered[0] == b"ab" and report.recovered[1] == b"cd"


def test_all_ones_column_recovers_nothing():
    payloads = [b"a", b"b", b"c"]
    frame = frame_from_batches(payloads, [(0, (0, 1, 2), [[1], [1], [1]])])
    assert batched_bp(frame).recovered == {}


def test_single_equation_releases_user():
    payloads = [b"zz"]
    frame = frame_from_batches(payloads, [(0, (0,), [[1]])])
    report = ordinary_bp(frame)
    assert report.recovered == {0: b"zz"}


def test_oracle_beats_bp_on_a_dense_system():
    # pairwise sums plus the triple sum: jointly rank 3 but no single batch
    # ever exposes a unit column, so peeling cannot start
    payloads = [bytes([i + 1]) for i in range(3)]
    frame = frame_from_batches(
        payloads,
        [
            (0, (0, 1), [[1], [1]]),
            (1, (1, 2), [[1], [1]]),
            (2, (0, 2), [[1], [1]]),
            (3, (0, 1, 2), [[1], [1], [1]]),
        ],
    )
    assert batched_bp(frame).recovered == {}
    assert ordinary_bp(frame).recovered == {}
    assert ge_oracle(frame) == {0, 1, 2}


# --- report bookkeeping ----------------------------------------------------


def test_report_iteration_counts_add_up():
    dist = DegreeDistribution({2: 0.6, 3: 0.4})
    model = PncModel.example(5)
    cfg = SystemConfig(users=80, slots=120, dist=dist, model=model, seed=31)
    frame = sample_frame(cfg)
    report = batched_bp(frame)
    assert sum(report.per_iteration) == len(report.recovered) - len(report.preknown)
    assert report.iterations == len(report.per_iteration)
    assert 0.0 <= report.decoded_fraction <= 1.0
    assert report.users == 80


@pytest.mark.parametrize("path", PEEL_PATHS)
def test_recovered_packets_read_as_the_dict_they_replace(path):
    """Both peels report their packets as the same read-only mapping over
    arrays, which compares, iterates, reads and prints as the dict of the
    preknown packets, then the recovered ones, did."""
    frame = sample_frame(SystemConfig(
        users=80, slots=120, dist=DegreeDistribution({2: 0.6, 3: 0.4}), model=PncModel.example(5), seed=31,
        payload_len=3,
    ))
    pre = {7: frame.payloads[7], 2: frame.payloads[2]}
    with peel_path(path):
        report = batched_bp(frame, pre)
    got = report.recovered
    assert isinstance(got, RecoveredPackets)
    want = {**pre, **{u: frame.payloads[u] for u in got.users[2:].tolist()}}
    assert len(got) == len(want) > len(pre)
    assert list(got) == list(want) and list(got.items()) == list(want.items())
    assert got == want and repr(got) == repr(want)
    assert 7 in got and frame.users not in got and got.get(frame.users) is None
    with pytest.raises(KeyError):
        got[frame.users]
    with pytest.raises(ValueError):
        got.rows[0, 0] = 1
    with peel_path(path):
        assert repr(batched_bp(four_user_frame()).recovered) == "{}"


def test_decoded_fraction_counts_preknown():
    frame = four_user_frame()
    report = batched_bp(frame, preknown={0: frame.payloads[0]})
    assert report.decoded_fraction == 0.5  # v1 given + v2 recovered, of four


def test_preknown_validation():
    frame = four_user_frame()
    with pytest.raises(ValueError):
        batched_bp(frame, preknown={9: b"xxx"})
    with pytest.raises(ValueError):
        batched_bp(frame, preknown={0: b"wrong length"})


def test_max_iters_truncates():
    # a chain of pair batches forces one recovery per pass
    payloads = [bytes([i]) * 2 for i in range(5)]
    specs = [(0, (0,), [[1]])]
    for i in range(4):
        specs.append((i + 1, (i, i + 1), [[1], [1]]))
    frame = frame_from_batches(payloads, specs)
    full = batched_bp(frame)
    assert set(full.recovered) == set(range(5))
    cut = batched_bp(frame, max_iters=2)
    assert cut.iterations <= 2
    assert set(cut.recovered) == {0, 1}


# --- properties over random frames -------------------------------------------


def test_dominance_and_soundness():
    model = PncModel.example(4)
    dist = DegreeDistribution({1: 0.2, 2: 0.4, 3: 0.4})
    for seed in range(60):
        cfg = SystemConfig(users=30, slots=25, dist=dist, model=model, seed=seed, payload_len=4)
        frame = sample_frame(cfg)
        strict = batched_bp(frame)
        plain = ordinary_bp(frame)
        oracle = ge_oracle(frame)
        assert set(plain.recovered) <= set(strict.recovered) <= oracle
        for u, payload in strict.recovered.items():
            assert payload == frame.payloads[u]
        for u, payload in plain.recovered.items():
            assert payload == frame.payloads[u]


def test_more_side_information_never_hurts():
    model = PncModel.example(4)
    dist = DegreeDistribution({2: 0.5, 3: 0.5})
    rng = random.Random(17)
    for seed in range(20):
        cfg = SystemConfig(users=25, slots=20, dist=dist, model=model, seed=seed, payload_len=2)
        frame = sample_frame(cfg)
        base = set(batched_bp(frame).recovered)
        given = rng.sample(range(25), 4)
        pre = {u: frame.payloads[u] for u in given}
        bigger = set(batched_bp(frame, preknown=pre).recovered)
        assert base | set(given) <= bigger


def test_batch_order_does_not_matter():
    model = PncModel.example(4)
    dist = DegreeDistribution({2: 0.5, 3: 0.5})
    rng = random.Random(5)
    for seed in range(10):
        cfg = SystemConfig(users=30, slots=24, dist=dist, model=model, seed=seed, payload_len=2)
        frame = sample_frame(cfg)
        shuffled = list(frame.batches)
        rng.shuffle(shuffled)
        permuted = Frame(
            n_slots=frame.n_slots,
            payload_len=frame.payload_len,
            payloads=frame.payloads,
                batches=tuple(shuffled),
        )
        a = batched_bp(frame)
        b = batched_bp(permuted)
        assert a.recovered == b.recovered
        assert a.per_iteration == b.per_iteration


def test_repeat_runs_identical():
    model = PncModel.example(5)
    dist = DegreeDistribution({3: 1.0})
    cfg = SystemConfig(users=60, slots=90, dist=dist, model=model, seed=2)
    frame = sample_frame(cfg)
    a = batched_bp(frame)
    b = batched_bp(frame)
    assert a.recovered == b.recovered and a.field_ops == b.field_ops


def test_conflicting_batches_raise():
    corrupted = corrupted_two_slot_frame()
    for path in PEEL_PATHS:
        with peel_path(path):
            with pytest.raises(FrameInconsistencyError, match="user 0 resolved to two different payloads"):
                batched_bp(corrupted)
            with pytest.raises(FrameInconsistencyError, match="user 0 resolved to two different payloads"):
                ordinary_bp(corrupted)


def one_and_three_term_conflict_frame():
    """With users 0 and 1 known, one pass releases user 2 from its own slot
    (one term: the output) and from the slot it shares with 0 and 1 (three
    terms), and its own slot's output is wrong; it also releases user 3
    twice, consistently, and user 4 once."""
    payloads = [bytes([11 * (u + 1)] * 3) for u in range(5)]
    frame = frame_from_batches(payloads, [(0, (2,), [[1]]), (1, (0, 1, 2), [[1], [1], [1]]), (2, (3,), [[1]]),
                                          (3, (3,), [[1]]), (4, (4,), [[1]])])
    bad = Batch(slot=0, users=(2,), transfer=frame.batches[0].transfer, outputs=(b"zzz",))
    corrupted = Frame(n_slots=5, payload_len=3, payloads=payloads, batches=(bad, *frame.batches[1:]))
    return corrupted, {u: payloads[u] for u in (0, 1)}


def test_a_user_released_twice_in_one_pass_with_different_terms_raises():
    frame, pre = one_and_three_term_conflict_frame()
    for path in PEEL_PATHS:
        with peel_path(path):
            for decode in (batched_bp, ordinary_bp):
                with pytest.raises(FrameInconsistencyError, match="^user 2 resolved to two different payloads$"):
                    decode(frame, pre)


def reference_write_packets(buf, offset, users, value, bound):
    """The conflict rule `_write_packets` replaced: scatter every packet,
    read every one back, and name the user of the first entry whose packet
    differs from the one its row holds after the scatter."""
    dest = offset + users
    buf[dest] = value
    clash = (buf[dest] != value).any(axis=1).nonzero()[0]
    if len(clash):
        raise FrameInconsistencyError(f"user {users[clash[0]]} resolved to two different payloads")
    return np.unique(users)


@pytest.mark.parametrize("budget", [None, 1])
def test_write_packets_matches_the_read_back_rule_on_random_entries(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(ncsa.frames, "_GATHER_BYTES", budget)
    rng = np.random.default_rng(12)
    outcomes = set()
    for width in (0, 1, 3, 8):
        for _ in range(200):
            bound, offset = int(rng.integers(1, 12)), int(rng.integers(0, 4))
            users = rng.integers(0, bound, int(rng.integers(0, 16)))
            # the packets of one user agree, except where a few entries are redrawn
            packets = rng.integers(0, 256, (bound, width), dtype=np.uint8)
            value = packets[users]
            redrawn = rng.random(len(users)) < 0.15
            value[redrawn] = rng.integers(0, 256, (int(redrawn.sum()), width), dtype=np.uint8)
            results = []
            for write in (ncsa.decoders._write_packets, reference_write_packets):
                buf = rng.integers(0, 256, (offset + bound, width), dtype=np.uint8)
                try:
                    results.append(write(buf, offset, users, value, bound).tolist())
                except FrameInconsistencyError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            outcomes.add(isinstance(results[0], str))
    assert outcomes == {True, False}


def corrupt_small_frames(count, payload_len):
    """The `small-frames` frames, each with a few outputs XORed with random
    nonzero rows."""
    rng = np.random.default_rng(payload_len)
    for frame in small_frames(count, payload_len):
        outputs = frame.outputs.copy()
        hit = rng.choice(len(outputs), min(len(outputs), int(rng.integers(1, 4))), replace=False)
        outputs[hit] ^= rng.integers(1, 256, (len(hit), payload_len), dtype=np.uint8)
        corrupted = Frame.__new__(Frame)
        corrupted._set(frame.n_slots, frame.payload_len, frame.payload_rows, frame.batch_slot, frame.batch_ptr,
                       frame.batch_users, frame.column_ptr, frame.column_masks, outputs)
        yield corrupted


@pytest.mark.parametrize("budget", [None, 1])
def test_corrupt_frames_raise_as_the_read_back_rule_does(monkeypatch, budget):
    """On corrupt frames, the peel names the same error and user with the
    repeated-user check as with reading every packet back."""
    if budget is not None:
        monkeypatch.setattr(ncsa.frames, "_GATHER_BYTES", budget)

    def outcomes(frames):
        out = []
        for frame in frames:
            for decode in (batched_bp, ordinary_bp):
                try:
                    report = decode(frame)
                    out.append((report.recovered, report.per_iteration, report.field_ops))
                except FrameInconsistencyError as exc:
                    out.append(str(exc))
        return out

    frames = [frame for width in (1, 3, 8) for frame in corrupt_small_frames(40, width)]
    with peel_path("arrays"):
        got = outcomes(frames)
        monkeypatch.setattr(ncsa.decoders, "_write_packets", reference_write_packets)
        want = outcomes(frames)
    assert got == want
    assert sum("resolved to two different payloads" in str(o) for o in got) >= 20


@pytest.mark.parametrize("corrupted", [cross_pass_corrupted_frame, unused_corrupt_output_frame])
def test_corruption_found_after_the_peel_raises(corrupted):
    frame = corrupted()
    for path in PEEL_PATHS:
        with peel_path(path):
            for decode in (batched_bp, ordinary_bp, ge_oracle):
                with pytest.raises(FrameInconsistencyError):
                    decode(frame)


def test_a_corrupt_output_with_unknown_members_does_not_raise():
    # the corrupt sum is never fully recovered, so nothing contradicts it
    frame = frame_from_batches([b"a", b"b", b"c"], [(0, (0,), [[1]]), (1, (1, 2), [[1], [1]])])
    bad = Batch(slot=1, users=(1, 2), transfer=frame.batches[1].transfer, outputs=(b"q",))
    corrupted = Frame(n_slots=2, payload_len=1, payloads=frame.payloads, batches=(frame.batches[0], bad))
    assert corrupted.mismatched_outputs.tolist() == [1]
    assert batched_bp(corrupted).recovered == {0: b"a"}
    assert ordinary_bp(corrupted).recovered == {0: b"a"}


def test_a_corrupt_hand_built_frame_fails_the_frame_check():
    frame = frame_from_batches([b"a", b"b"], [(0, (0,), [[1]]), (1, (0, 1), [[1], [1]])])
    bad = Batch(slot=1, users=(0, 1), transfer=frame.batches[1].transfer, outputs=(b"q",))
    corrupted = Frame(n_slots=2, payload_len=1, payloads=frame.payloads, batches=(frame.batches[0], bad))
    assert corrupted.mismatched_outputs.tolist() == [1]
    users = np.array([0, 1])
    _check_against_frame(frame, users, frame.payload_rows[users])
    with pytest.raises(FrameInconsistencyError, match="output 1 disagrees"):
        _check_against_frame(corrupted, users, corrupted.payload_rows[users])


# --- the shared peeling driver against the references -------------------------


def test_peelers_match_references_on_small_frames():
    # the 1000 frames of acceptance criterion 7; each iteration cap takes
    # every third frame, with and without side information
    model = PncModel.example(5)
    dist = DegreeDistribution({1: 0.15, 2: 0.35, 3: 0.3, 4: 0.2})
    rng = random.Random(11)
    for seed in range(1000):
        cfg = SystemConfig(users=50, slots=60, dist=dist, model=model, seed=seed, payload_len=2)
        frame = sample_frame(cfg)
        given_users = rng.sample(range(50), rng.randint(1, 12))
        max_iters = (1, 2, 200)[seed % 3]
        for pre in (None, {u: frame.payloads[u] for u in given_users}):
            assert_same_peels(frame, pre, max_iters)


def test_peelers_match_references_past_the_peeling_threshold():
    model = PncModel.example(10)
    dist = DegreeDistribution({3: 1.0})
    for seed in range(10):
        cfg = SystemConfig(users=400, slots=math.ceil(400 / 1.75), dist=dist, model=model, seed=seed, payload_len=2)
        assert_same_peels(sample_frame(cfg))


def test_peelers_match_references_on_a_large_dense_frame():
    # 20k users at rate 1.6: the differential case with the most distinct
    # (shape, unknown mask) keys, about 24k
    cfg = SystemConfig(
        users=20_000, slots=math.ceil(20_000 / 1.6), dist=DegreeDistribution({3: 1.0}),
        model=PncModel.example(10), seed=3, payload_len=4,
    )
    assert_same_peels(sample_frame(cfg))


def test_peelers_match_references_on_a_batch_wider_than_int64():
    # 70 users in one slot: column masks are Python ints, not int64
    users = 70
    payloads = [bytes([i, 255 - i]) for i in range(users)]
    rows = [[0, 0] for _ in range(users)]
    rows[0][1] = rows[69][0] = rows[69][1] = 1
    rows[30][0] = 1
    specs = [(0, tuple(range(users)), rows), (1, (30,), [[1]])]
    frame = frame_from_batches(payloads, specs)
    assert frame.column_masks.dtype == object
    for pre in (None, {5: payloads[5]}):
        assert_same_peels(frame, pre)
    assert set(batched_bp(frame).recovered) == {0, 30, 69}


def test_peelers_match_references_on_a_batch_too_wide_for_int64_keys():
    # 40 users in one slot: the masks fit int64, but a rule key (the mask
    # above a 32-bit shape id) does not, so the keys are Python ints
    users = 40
    payloads = [bytes([i, 255 - i]) for i in range(users)]
    rows = [[0, 0] for _ in range(users)]
    rows[0][1] = rows[39][0] = rows[39][1] = rows[30][0] = 1
    frame = frame_from_batches(payloads, [(0, tuple(range(users)), rows), (1, (30,), [[1]])])
    assert frame.column_masks.dtype == np.int64
    for pre in (None, {5: payloads[5]}):
        assert_same_peels(frame, pre)
    assert set(batched_bp(frame).recovered) == {0, 30, 39}


def test_peelers_match_references_on_a_sampled_frame_wider_than_int64():
    # 70 users in one slot under a cap of 70: the sampled masks are Python
    # ints.  Knowing all users but two, the slot releases both at this seed.
    dist = DegreeDistribution({1: 1.0})
    config = SystemConfig(users=70, slots=1, dist=dist, model=PncModel.example(70), seed=1, payload_len=2)
    frame = sample_frame(config)
    assert frame.column_masks.dtype == object
    assert frame.column_masks.max() >= 2**63
    payloads = frame.payloads
    pre = {u: payloads[u] for u in range(68)}
    for known in (None, pre):
        assert_same_peels(frame, known)
    report = batched_bp(frame, pre)
    assert report.newly_recovered == {68, 69}
    assert set(report.recovered) <= ge_oracle(frame, pre) == reference_ge_oracle(frame, pre)


# a custom model with three-column members, whose rules `_peel` evaluates
# by `_slot_rule` next to the closed form of the narrower ones
def wide_frames(count):
    model = PncModel.from_dict(WIDE_MODEL)
    dist = DegreeDistribution({1: 0.2, 2: 0.3, 3: 0.5})
    for seed in range(count):
        yield sample_frame(SystemConfig(users=400, slots=300, dist=dist, model=model, seed=seed, payload_len=2))


def test_peelers_match_references_with_three_column_members():
    rng = random.Random(3)
    for frame in wide_frames(5):
        assert frame.column_masks.dtype == np.int64
        assert (frame.column_ptr[1:] - frame.column_ptr[:-1]).max() == 3
        assert_same_peels(frame)
        assert_same_peels(frame, {u: frame.payloads[u] for u in rng.sample(range(400), 40)})


def test_rebuilt_frame_decodes_identically():
    # a sampled frame and the same frame rebuilt from its Batch objects
    model = PncModel.example(5)
    dist = DegreeDistribution({1: 0.15, 2: 0.35, 3: 0.3, 4: 0.2})
    for seed in range(20):
        frame = sample_frame(SystemConfig(users=50, slots=60, dist=dist, model=model, seed=seed, payload_len=2))
        rebuilt = Frame(n_slots=frame.n_slots, payload_len=frame.payload_len, payloads=frame.payloads,
                        batches=frame.batches)
        assert rebuilt == frame
        for decode in (batched_bp, ordinary_bp, ge_oracle):
            assert decode(rebuilt) == decode(frame)


def test_batched_bp_eliminates_each_memo_key_once(monkeypatch):
    """Without a wall clock: one rule evaluation per distinct (shape, unknown
    mask) key, in closed form or by `_slot_rule`, and the report counts them."""
    frame = sample_frame(SystemConfig(
        users=20_000, slots=40_000, dist=DegreeDistribution({3: 1.0}), model=PncModel.example(10), seed=1,
    ))
    keys = []
    slot_rule, pair_rules = ncsa.decoders._slot_rule, ncsa.decoders._pair_rules

    def recording_slot_rule(rows, masks, unknown):
        keys.append((rows, tuple(masks), unknown))
        return slot_rule(rows, masks, unknown)

    def recording_pair_rules(rows, cols, c1, c2, unknown):
        for r, c, m1, m2, u in zip(*(a.tolist() for a in (rows, cols, c1, c2, unknown))):
            keys.append((r, (m1, m2)[:c], u))
        return pair_rules(rows, cols, c1, c2, unknown)

    monkeypatch.setattr(ncsa.decoders, "_slot_rule", recording_slot_rule)
    monkeypatch.setattr(ncsa.decoders, "_pair_rules", recording_pair_rules)
    with empty_rule_caches():
        report = batched_bp(frame)
    assert report.decoded_fraction == 1.0
    assert 0 < len(keys) <= len(set(keys))
    assert report.eliminations == len(keys)
    assert report.visits >= len(set(keys))


class CountingDict(dict):
    """A dict that counts the probes of its keys."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


@pytest.mark.parametrize("peel", [batched_bp, ordinary_bp])
def test_a_peel_pass_probes_the_rule_table_once_per_distinct_key(peel, monkeypatch):
    frame = sample_frame(SystemConfig(
        users=20_000, slots=40_000, dist=DegreeDistribution({3: 1.0}), model=PncModel.example(10), seed=1,
    ))
    rules = RuleTable()
    rules._rules = CountingDict()
    distinct = []
    lookup = RuleTable.lookup

    def recording_lookup(self, keys):
        distinct.append(len(set(keys.tolist())))
        return lookup(self, keys)

    monkeypatch.setattr(RuleTable, "lookup", recording_lookup)
    monkeypatch.setattr(ncsa.decoders._local, "rules", rules, raising=False)
    report = peel(frame)
    assert report.decoded_fraction == 1.0
    assert len(distinct) == report.iterations
    assert rules._rules.probes == sum(distinct) < report.visits


def reference_add(rules, keys):
    """`RuleTable.add` key by key: each key's shape is read from the named
    tuples, the keys of at most two columns of an int64 array are evaluated
    by `_pair_rules` over a table built one key at a time and numbered
    first, the others by `_slot_rule`."""
    mask = ncsa.decoders._SHAPE_MASK
    keys, ints = keys.tolist(), keys.dtype == np.int64
    wide = [not ints or len(rules._named[key & mask][1]) > 2 for key in keys]
    narrow = [key for key, w in zip(keys, wide) if not w]
    if narrow:
        shapes = (rules._named[key & mask] for key in narrow)
        table = np.array([(rows, len(masks), *masks, 0)[:4] for rows, masks in shapes], np.int64)
        spent, sizes, terms = ncsa.decoders._pair_rules(
            *table.T, np.array(narrow, np.int64) >> ncsa.decoders._SHAPE_BITS,
        )
        first = rules._terms + sizes.cumsum() - sizes
        rules._add(narrow, np.stack([spent, first, sizes], axis=1), terms)
    rules._add_slot_rules([key for key, w in zip(keys, wide) if w])


def reference_lookup(rules, keys):
    """`RuleTable.lookup` one key at a time: the keys not held are added in
    order of first appearance (`reference_add`), then every key and every
    distinct key, in order of first appearance, is read from the table."""
    found = rules._rules
    distinct = list(dict.fromkeys(keys.tolist()))
    reference_add(rules, np.array([key for key in distinct if key not in found], keys.dtype))
    return [found[key] for key in keys.tolist()], [found[key] for key in distinct]


def assert_lookups_match_the_reference(shapes, batches, dtype):
    """Look up each batch of keys in two tables naming the same shapes, by
    `RuleTable.lookup` (whose `add` splits and gathers the new keys as
    arrays) and by `reference_lookup`: the rule ids of all keys and of the
    distinct keys, the number of rules held after each batch and the rules
    held are equal."""
    grouped, reference = RuleTable(), RuleTable()
    grouped.shape_ids(shapes)
    reference.shape_ids(shapes)
    for keys in batches:
        ids, distinct = grouped.lookup(np.array(keys, dtype))
        assert (ids.tolist(), distinct.tolist()) == reference_lookup(reference, np.array(keys, dtype))
        assert len(grouped) == len(reference)
    assert grouped._rules == reference._rules
    assert np.array_equal(grouped.rule[:len(grouped)], reference.rule[:len(reference)])
    assert np.array_equal(grouped.term[:grouped._terms], reference.term[:reference._terms])


@pytest.mark.parametrize("rows, dtype", [(range(1, 11), np.int64), (range(32, 71), object)])
def test_grouped_lookup_matches_the_per_key_reference_on_random_keys(rows, dtype):
    # one to three columns; past 31 rows a key does not fit int64
    rng = random.Random(len(rows))
    shapes = []
    for _ in range(40):
        r = rng.choice(rows)
        shapes.append((r, tuple(rng.randrange(1, 1 << r) for _ in range(rng.randint(1, 3)))))
    shapes = list(dict.fromkeys(shapes))
    pool = [rng.randrange(1 << shapes[s][0]) << 32 | s for s in (rng.randrange(len(shapes)) for _ in range(60))]
    batches = [[rng.choice(pool) for _ in range(rng.randint(0, 80))] for _ in range(8)]
    assert_lookups_match_the_reference(shapes, batches, dtype)


def test_grouped_lookup_matches_the_per_key_reference_on_peel_keys(monkeypatch):
    """The keys the passes of both peelers look up, over two frames with
    three-column members and one table."""
    batches = []
    lookup = RuleTable.lookup

    def recording_lookup(self, keys):
        batches.append(keys.tolist())
        return lookup(self, keys)

    rules = RuleTable()
    monkeypatch.setattr(RuleTable, "lookup", recording_lookup)
    monkeypatch.setattr(ncsa.decoders._local, "rules", rules, raising=False)
    for frame in wide_frames(2):
        for peel in (batched_bp, ordinary_bp):
            peel(frame)
    assert ncsa.decoders._local.rules is rules
    monkeypatch.undo()
    assert sum(map(len, batches)) > len({key for keys in batches for key in keys}) > 0
    assert_lookups_match_the_reference(list(rules.shapes), batches, np.int64)


def pair_rules_as_slot_rules(rows, masks, unknowns):
    """`_pair_rules` on keys of one shape, read back into `_slot_rule`'s
    ``(released, spent)`` form."""
    def column(value):
        return np.full(len(unknowns), value, np.int64)

    c = len(masks)
    spent, counts, terms = ncsa.decoders._pair_rules(
        column(rows), column(c), column(masks[0]), column(masks[1] if c == 2 else 0),
        np.array(unknowns, np.int64),
    )
    out, at = [], 0
    for ops, count in zip(spent.tolist(), counts.tolist()):
        released = []
        for local, row in terms[at:at + count].tolist():
            if row:
                released.append((row - c, [], []))
            if local < c:
                released[-1][1].append(local)
            else:
                released[-1][2].append(local - c)
        out.append((tuple((row, tuple(cols), tuple(known)) for row, cols, known in released), ops))
        at += count
    assert at == len(terms)
    return out


@pytest.mark.parametrize("d", range(1, 7))
def test_pair_rules_equal_slot_rule_on_every_stock_key(d):
    members = {member.column_masks() for member, _ in example_family(d).entries}
    unknowns = list(range(1 << d))
    for masks in members:
        assert len(masks) <= 2
        got = pair_rules_as_slot_rules(d, masks, unknowns)
        assert got == [ncsa.decoders._slot_rule(d, masks, u) for u in unknowns], masks


def test_pair_rules_equal_slot_rule_on_random_keys():
    # up to d = 10, and at 31 rows, the widest shape whose keys fit int64
    rng = random.Random(4)
    for rows in [*range(1, 11), 31]:
        for _ in range(200):
            masks = tuple(rng.randrange(1 << rows) for _ in range(rng.randint(1, 2)))
            unknowns = [rng.randrange(1 << rows) for _ in range(8)]
            got = pair_rules_as_slot_rules(rows, masks, unknowns)
            assert got == [ncsa.decoders._slot_rule(rows, masks, u) for u in unknowns], (rows, masks)


@pytest.mark.parametrize("bound", [1 << 16, 1 << 20, 1 << 40])
def test_stable_order_is_a_stable_argsort(bound):
    # one 16-bit digit, two, and past 2**32 numpy's own stable argsort
    rng = np.random.default_rng(bound)
    for size in (0, 1, 5_000):
        values = rng.integers(0, bound, size)
        values[: size // 2] = values[size // 2: size // 2 * 2]  # ties, which stability orders
        got = ncsa.frames.stable_order(values, bound)
        assert got.tolist() == values.argsort(kind="stable").tolist()


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_first_seen_matches_the_first_appearance_reference(dtype):
    # empty, all equal, few distinct values and distinct values; object
    # arrays hold Python ints past int64
    rng = np.random.default_rng(5)
    top = 1 << 70 if dtype is object else 1 << 40
    cases = [[], [7], [3] * 9, [2, 2, 1, 2, 0, 1], rng.integers(0, 6, 500).tolist(),
             rng.integers(0, 1 << 40, 300).tolist(), [top - 1, 0, top - 1, 1 << 33, 0]]
    for values in cases:
        # bounds at or below 2**16 and 2**32 take the radix sorts
        first, index = ncsa.frames.first_seen(np.array(values, dtype), max(values, default=0) + 1)
        distinct = list(dict.fromkeys(values))
        assert first.tolist() == [values.index(v) for v in distinct]
        assert index.tolist() == [distinct.index(v) for v in values]


@pytest.mark.parametrize("payload_len", [0, 1, 2, 32])
def test_row_scatter_equals_the_2d_scatter(payload_len):
    # 200 writes into 40 rows repeat destinations: the last write wins in both
    rng = np.random.default_rng(payload_len)
    for rows, count in ((0, 0), (1, 3), (40, 25), (40, 200)):
        buf = rng.integers(0, 256, (rows, payload_len), dtype=np.uint8)
        dest = rng.integers(0, rows, count) if rows else np.zeros(0, np.int64)
        value = rng.integers(0, 256, (count, payload_len), dtype=np.uint8)
        want = buf.copy()
        want[dest] = value
        ncsa.decoders._scatter_rows(buf, dest, value)
        assert buf.tobytes() == want.tobytes()


def reference_batch_shape_ids(frame, rules):
    """`_batch_shape_ids` on int64 masks by one `np.lexsort` over a table of
    (rows, column count, masks padded with 0) rows."""
    rows = frame.batch_ptr[1:] - frame.batch_ptr[:-1]
    cols = frame.column_ptr[1:] - frame.column_ptr[:-1]
    owner, pos = ncsa.frames.segments(cols)
    table = np.zeros((len(rows), 2 + int(cols.max(initial=0))), np.int64)
    table[:, 0], table[:, 1] = rows, cols
    table[owner, 2 + pos] = frame.column_masks
    order = np.lexsort(table.T)
    ordered = np.take(table, order, axis=0)
    opens = np.ones(len(order), bool)
    opens[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = order[opens]
    by_first = first.argsort()
    ids = np.empty(len(first), np.int64)
    distinct = np.take(table, first[by_first], axis=0).tolist()
    ids[by_first] = rules.shape_ids((r, tuple(m[:c])) for r, c, *m in distinct)
    shape_id = np.empty(len(rows), np.int64)
    shape_id[order] = ids[opens.cumsum() - 1]
    return shape_id


def reference_shape_row(rows, masks):
    """A named shape's `RuleTable._shape` row: rows, column count and the
    first two masks, 0 where absent or past int64."""
    first = masks[:2] if rows < 64 else ()
    return [rows, len(masks), *first, *[0] * (2 - len(first))]


def named_batch_shape_ids(frame, rules):
    """The shape id of each batch of `frame`, its `_batch_shape_ids` shapes
    named in `rules` as `_peel` names them; the shapes are distinct."""
    shapes, index = ncsa.decoders._batch_shape_ids(frame)
    assert len(set(shapes)) == len(shapes)
    return rules.shape_ids(shapes)[index]


def test_packed_batch_shape_ids_match_the_lexsort_reference():
    # one pair of tables over every case with int64 masks, so shapes named
    # by earlier frames are found again; the cap-30 frame's shapes need more
    # than 63 bits and are packed as Python ints
    packed, reference = RuleTable(), RuleTable()
    for name in DIFFERENTIAL_CASES:
        _, frame = differential_frame(name)
        if frame.column_masks.dtype == object:
            continue  # the lexsort table holds int64 masks only
        got = named_batch_shape_ids(frame, packed)
        assert got.tolist() == reference_batch_shape_ids(frame, reference).tolist(), name
    assert list(packed.shapes.items()) == list(reference.shapes.items())
    assert packed._named == reference._named
    assert packed._shape[:len(packed._named)].tolist() == [reference_shape_row(*s) for s in packed._named]


def test_shape_rows_of_masks_past_int64_hold_zero():
    rules = RuleTable()
    shapes = [(3, (5, 6, 7)), (64, (2**63, 1)), (70, (2**69 + 1,)), (5, ()), (31, (2**30,))]
    assert rules.shape_ids(shapes).tolist() == [0, 1, 2, 3, 4]
    assert rules._shape[:5].tolist() == [reference_shape_row(*s) for s in shapes]


def reference_tuple_shape_ids(frame, rules):
    """`_batch_shape_ids` batch by batch, each shape named as a (rows,
    column masks) tuple in batch order."""
    column_ptr, masks = frame.column_ptr.tolist(), frame.column_masks.tolist()
    rows = np.diff(frame.batch_ptr).tolist()
    return rules.shape_ids((r, tuple(masks[column_ptr[b]:column_ptr[b + 1]])) for b, r in enumerate(rows))


def test_batch_shapes_are_named_alike_in_arrays_and_tuples():
    # the differential cases include shapes packed past 63 bits (cap-30) and
    # masks past int64 (object-masks); `_peel_scalar` reads the frame's own
    # shapes by index, `_peel` names them in its table
    stock = [sample_frame(SystemConfig(
        users=2_000, slots=1_500, dist=DegreeDistribution({1: 0.2, 3: 0.5, 6: 0.3}), model=PncModel.example(10),
        seed=seed,
    )) for seed in range(3)]
    differential = [differential_frame(name)[1] for name in DIFFERENTIAL_CASES]
    arrays, tuples = RuleTable(), RuleTable()
    for frame in [*stock, *wide_frames(2), *differential]:
        shapes, index = ncsa.decoders._batch_shape_ids(frame)
        want = reference_tuple_shape_ids(frame, tuples).tolist()
        assert named_batch_shape_ids(frame, arrays).tolist() == want
        assert [tuples._named[i] for i in want] == [shapes[i] for i in index.tolist()]
    assert arrays.shapes == tuples.shapes


@pytest.mark.parametrize("path", PEEL_PATHS)
def test_peel_counters_are_pinned(path):
    """Visits, eliminations and field operations of both peelers on a
    fixed-seed 20k-user frame; the eliminations, the distinct rules each
    decode applied, are what the earlier per-decode memo evaluated."""
    frame = sample_frame(SystemConfig(
        users=20_000, slots=40_000, dist=DegreeDistribution({3: 1.0}), model=PncModel.example(10), seed=1,
    ))
    with peel_path(path):
        batched, plain = batched_bp(frame), ordinary_bp(frame)
    assert (batched.visits, batched.eliminations, batched.field_ops) == (37_077, 1_355, 33_003)
    assert (plain.visits, plain.eliminations, plain.field_ops) == (35_346, 21, 8_981)
    assert len(batched.recovered) == len(plain.recovered) == 20_000


def small_frames(count, payload_len=2):
    """The frames of the `small-frames` benchmark call, by seed."""
    model = PncModel.example(5)
    dist = DegreeDistribution({1: 0.15, 2: 0.35, 3: 0.3, 4: 0.2})
    for seed in range(count):
        yield sample_frame(SystemConfig(users=50, slots=60, dist=dist, model=model, seed=seed, payload_len=payload_len))


@functools.cache
def report_model(kind):
    return {"stock": lambda: PncModel.example(5), "three-columns": lambda: PncModel.from_dict(WIDE_MODEL),
            "past-int64": lambda: PncModel.example(70)}[kind]()


def report_frame(kind, seed):
    """A small frame of one of three kinds: stock (the `small-frames` call),
    three-column custom members (keys `_peel` evaluates by `_slot_rule`),
    and two slots of some 35 users whose keys do not fit int64."""
    dist = {"stock": {1: 0.15, 2: 0.35, 3: 0.3, 4: 0.2}, "three-columns": {1: 0.2, 2: 0.3, 3: 0.5},
            "past-int64": {1: 1.0}}[kind]
    users, slots = {"stock": (50, 60), "three-columns": (60, 45), "past-int64": (70, 2)}[kind]
    return sample_frame(SystemConfig(users=users, slots=slots, dist=DegreeDistribution(dist),
                                     model=report_model(kind), seed=seed, payload_len=2))


REPORT_FRAME_KINDS = ["stock", "three-columns", "past-int64"]
report_frames = st.builds(report_frame, st.sampled_from(REPORT_FRAME_KINDS), st.integers(0, 2**16))


@st.composite
def report_decodes(draw):
    """A frame, preknown packets (none, about half, or all but a few users)
    and an iteration cap."""
    frame = draw(report_frames)
    users = range(frame.users)
    hidden = draw(st.one_of(
        st.none(),
        st.sets(st.sampled_from(users), min_size=frame.users // 2, max_size=frame.users // 2),
        st.sets(st.sampled_from(users), max_size=4).map(lambda few: set(users) - few),
    ))
    pre = None if hidden is None else {u: frame.payloads[u] for u in users if u not in hidden}
    return frame, pre, draw(st.sampled_from([1, 3, 200]))


@pytest.mark.parametrize("path", PEEL_PATHS)
@settings(max_examples=50, deadline=None, database=None)
@given(decode=report_decodes(), earlier=st.lists(report_frames, min_size=1, max_size=3))
def test_a_report_depends_only_on_its_frame_preknown_and_max_iters(path, decode, earlier):
    """A decode reports the same in full, counters included, whatever the
    process decoded first: with the rule caches as they are, with both
    emptied, and after unrelated frames went down both peelers."""
    frame, pre, max_iters = decode
    with peel_path(path):
        for peel in (batched_bp, ordinary_bp):
            current = peel(frame, pre, max_iters)
            with empty_rule_caches():
                cold = peel(frame, pre, max_iters)
                for other in earlier:
                    batched_bp(other), ordinary_bp(other)
                warm = peel(frame, pre, max_iters)
            assert current == cold == warm
            assert current.recovered.users.tolist() == cold.recovered.users.tolist() == warm.recovered.users.tolist()


def test_simulate_evaluates_each_rule_once(tmp_path, monkeypatch):
    """With the rule caches emptied first, every trial and both peelers of a
    simulate call evaluate each (shape, unknown mask) key once."""
    keys = []
    slot_rule = ncsa.decoders._slot_rule

    def recording_slot_rule(rows, masks, unknown):
        keys.append((rows, masks, unknown))
        return slot_rule(rows, masks, unknown)

    monkeypatch.setattr(ncsa.decoders, "_slot_rule", recording_slot_rule)
    argv = ["simulate", "--users", "50", "--slots", "60", "--dist", "1:0.15,2:0.35,3:0.3,4:0.2", "--cap", "5",
            "--payload-bytes", "2", "--decoder", "all", "--trials", "20", "--out", str(tmp_path / "sim.csv")]
    with empty_rule_caches():
        assert main(argv) == 0
    assert 0 < len(keys) == len(set(keys))


def test_rule_caches_past_their_limit_change_no_report(tmp_path, monkeypatch):
    """With a limit of 100, `_peel`'s table is replaced only between decodes
    and `_peel_scalar`'s memo never holds more than 100 rules, so some keys
    are evaluated again; every report and the simulate CSV stay the same."""
    argv = ["simulate", "--users", "50", "--slots", "60", "--dist", "1:0.15,2:0.35,3:0.3,4:0.2", "--cap", "5",
            "--payload-bytes", "2", "--decoder", "all", "--trials", "20", "--omit-times", "--out"]
    frames = [*small_frames(20), *wide_frames(1)]
    used = []  # per decode, the tables its passes looked up in

    def reports(memo=None):
        out = []
        for path in PEEL_PATHS:
            with peel_path(path):
                for frame in frames:
                    for peel in (batched_bp, ordinary_bp):
                        used.append([])
                        out.append(peel(frame))
                        assert memo is None or memo.cache_info().currsize <= 100
        return out

    with empty_rule_caches():
        want = reports()
        assert main([*argv, str(tmp_path / "unbounded.csv")]) == 0

    keys = []
    slot_rule, lookup = ncsa.decoders._slot_rule, RuleTable.lookup

    def recording_slot_rule(rows, masks, unknown):
        keys.append((rows, masks, unknown))
        return slot_rule(rows, masks, unknown)

    def recording_lookup(self, unit_keys):
        used[-1].append(self)
        return lookup(self, unit_keys)

    monkeypatch.setattr(ncsa.decoders, "_RULES_LIMIT", 100)
    monkeypatch.setattr(ncsa.decoders, "_slot_rule", recording_slot_rule)
    monkeypatch.setattr(RuleTable, "lookup", recording_lookup)
    used.clear()
    with empty_rule_caches(limit=100) as memo:
        got = reports(memo)
        assert main([*argv, str(tmp_path / "bounded.csv")]) == 0
        assert memo.cache_info().currsize <= 100 < memo.cache_info().misses
    assert got == want
    assert [r.recovered.users.tolist() for r in got] == [r.recovered.users.tolist() for r in want]
    assert all(len(set(map(id, tables))) <= 1 for tables in used)
    replaced = list(dict.fromkeys(table for tables in used for table in tables))
    assert len(replaced) > 1 and all(table.size > 100 for table in replaced[:-1])
    assert len(keys) > len(set(keys))
    assert (tmp_path / "bounded.csv").read_bytes() == (tmp_path / "unbounded.csv").read_bytes()


def test_decodes_in_several_threads_report_what_serial_ones_do():
    """Six threads, each decoding every frame in its own order, with a
    switch interval short enough to interleave their passes.  Each thread
    keeps its own `_peel` table, and they share `_peel_scalar`'s memo, so
    every report equals the serial one; six threads sharing one table
    misreport dozens of decodes in one such round."""
    model = PncModel.example(6)
    dist = DegreeDistribution({1: 0.2, 2: 0.3, 3: 0.3, 5: 0.2})
    frames = [sample_frame(SystemConfig(users=300, slots=250, dist=dist, model=model, seed=seed, payload_len=2))
              for seed in range(12)]
    frames += [*small_frames(4), *(report_frame("past-int64", seed) for seed in range(2))]
    with empty_rule_caches():
        want = [(batched_bp(frame), ordinary_bp(frame)) for frame in frames]

    def decode_all(seed):
        order = list(range(len(frames)))
        random.Random(seed).shuffle(order)
        return {i: (batched_bp(frames[i]), ordinary_bp(frames[i])) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with empty_rule_caches(), ThreadPoolExecutor(6) as pool:
            done = [future.result(timeout=60) for future in [pool.submit(decode_all, k) for k in range(6)]]
    finally:
        sys.setswitchinterval(interval)
    for got in done:
        assert [got[i] for i in range(len(frames))] == want


@pytest.mark.parametrize("path", PEEL_PATHS)
def test_a_tiny_gather_block_leaves_every_report_unchanged(path, monkeypatch):
    """Frames drawn and peeled with gather blocks of one row and of a few
    rows report what the default block reports, counters included, with
    and without side information; corrupt frames raise as they do with it."""
    sized = [(800, 4, PncModel.example(10)), (600, 3, PncModel.example(10)), (50, 8, PncModel.example(5)),
             (50, 0, PncModel.example(5))]
    configs = [SystemConfig(users=users, slots=users * 6 // 5, dist=DegreeDistribution({1: 0.15, 2: 0.35, 3: 0.5}),
                            model=model, seed=seed, payload_len=width)
               for seed, (users, width, model) in enumerate(sized)]

    def reports():
        out = []
        for cfg in configs:
            frame = sample_frame(cfg)
            pre = {u: frame.payloads[u] for u in range(0, cfg.users, 7)}
            out += [peel(frame, given) for peel in (batched_bp, ordinary_bp) for given in (None, pre)]
        return out

    with peel_path(path):
        want = reports()
        for budget in (1, 24):
            monkeypatch.setattr(ncsa.frames, "_GATHER_BYTES", budget)
            for got, expected in zip(reports(), want, strict=True):
                assert got == expected
                assert (got.per_iteration, got.field_ops, got.visits, got.eliminations) == (
                    expected.per_iteration, expected.field_ops, expected.visits, expected.eliminations)
            for decode in (batched_bp, ordinary_bp):
                with pytest.raises(FrameInconsistencyError, match="user 0 resolved to two different payloads"):
                    decode(corrupted_two_slot_frame())
            for corrupted in (cross_pass_corrupted_frame(), unused_corrupt_output_frame()):
                for decode in (batched_bp, ordinary_bp, ge_oracle):
                    with pytest.raises(FrameInconsistencyError):
                        decode(corrupted)


@pytest.mark.parametrize("payload_len", [0, 1, 2, 3, 4, 8, 32])
def test_peelers_match_references_at_every_payload_width(payload_len):
    # each word size of `xor_segments`, and the empty row
    rng = random.Random(payload_len)
    for frame in small_frames(12, payload_len):
        assert_same_peels(frame)
        pre = {u: frame.payloads[u] for u in rng.sample(range(50), 5)}
        assert_same_peels(frame, pre)


@pytest.mark.parametrize(
    "family",
    [example_family(d) for d in range(2, 7)] + [PncModel.from_dict(SIMULATE_TEST_MODEL).family(3)],
    ids=[f"stock-{d}" for d in range(2, 7)] + ["custom-3"],
)
def test_slot_rule_releases_the_last_row_exactly_on_its_gamma_sets(family):
    """The decoder's release rule against the analysis: with the rows in V
    known, `_slot_rule` releases the last row exactly when V (1-based) is in
    the member's gamma set, the last row being `gamma_set`'s target."""
    d = family.degree
    full = (1 << d) - 1
    for member, _ in family.entries:
        gammas = gamma_set(member)
        for known in range(1 << (d - 1)):
            released, _ = ncsa.decoders._slot_rule(d, member.column_masks(), full & ~known)
            v = frozenset(r + 1 for r in range(d - 1) if known >> r & 1)
            assert any(row == d - 1 for row, _, _ in released) == (v in gammas), (member, v)


def test_simulate_never_builds_batch_objects(tmp_path, monkeypatch):
    def refuse(frame):
        raise AssertionError("simulate built Frame.batches")

    monkeypatch.setattr(Frame, "batches", property(refuse))
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--users", "300", "--rate", "0.5", "--dist", "3:1", "--cap", "5", "--decoder", "all",
            "--trials", "2", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text().count(",oracle,") == 2


def test_oracle_identity_frame():
    payloads = [bytes([i]) for i in range(6)]
    specs = [(i, (i,), [[1]]) for i in range(6)]
    frame = frame_from_batches(payloads, specs)
    assert ge_oracle(frame) == frozenset(range(6))


# --- peel-then-eliminate oracle against plain elimination ---------------------


def peel_reports(frame, pre=None):
    """The oracle's own peel (None), then `batched_bp` reports it may reuse:
    a full run and one cut short after one iteration."""
    return (
        None,
        batched_bp(frame, pre),
        batched_bp(frame, pre, max_iters=1),
    )


def test_oracle_matches_reference_on_small_frames():
    model = PncModel.example(5)
    dist = DegreeDistribution({1: 0.15, 2: 0.35, 3: 0.3, 4: 0.2})
    rng = random.Random(7)
    for seed in range(300):
        cfg = SystemConfig(users=50, slots=60, dist=dist, model=model, seed=seed, payload_len=2)
        frame = sample_frame(cfg)
        given_users = rng.sample(range(50), rng.randint(1, 12))
        for pre in (None, {u: frame.payloads[u] for u in given_users}):
            expected = reference_ge_oracle(frame, pre)
            for report in peel_reports(frame, pre):
                assert ge_oracle(frame, pre, report) == expected


def test_oracle_matches_reference_past_the_peeling_threshold():
    # about 3% of these frames leave a rank-deficient core, so frames are
    # drawn until both kinds of core have been eliminated (at most 300)
    model = PncModel.example(10)
    dist = DegreeDistribution({3: 1.0})
    users = 400
    full_rank_cores = partial_cores = 0
    for seed in range(300):
        cfg = SystemConfig(
            users=users, slots=math.ceil(users / 1.75), dist=dist, model=model, seed=seed, payload_len=1,
        )
        frame = sample_frame(cfg)
        peeled = len(batched_bp(frame).recovered)
        expected = reference_ge_oracle(frame)
        for report in peel_reports(frame):
            assert ge_oracle(frame, peeled=report) == expected
        if peeled < users:
            # the core is eliminated: either all of it falls out, or a strict part
            full_rank_cores += len(expected) == users
            partial_cores += peeled < len(expected) < users
        if full_rank_cores and partial_cores:
            break
    assert full_rank_cores > 0 and partial_cores > 0


def test_the_oracle_answers_with_a_read_only_set_over_a_user_array():
    """The oracle's `UserSet` compares, hashes, prints and combines as the
    frozenset of its users, with no ints built to count them."""
    # user 3 peels, 0-2 need elimination (as in the dense system above),
    # and the sum of 4 and 5 releases neither
    frame = frame_from_batches(
        [bytes([i + 1]) for i in range(6)],
        [
            (0, (0, 1), [[1], [1]]),
            (1, (1, 2), [[1], [1]]),
            (2, (0, 2), [[1], [1]]),
            (3, (0, 1, 2), [[1], [1], [1]]),
            (4, (3,), [[1]]),
            (5, (4, 5), [[1], [1]]),
        ],
    )
    peeled = batched_bp(frame)
    want = reference_ge_oracle(frame)
    assert (set(peeled.recovered), want) == ({3}, {0, 1, 2, 3})
    got = ge_oracle(frame, peeled=peeled)
    assert isinstance(got, UserSet) and len(got) == got.mask.sum() == len(want)
    assert got == want and want == got and hash(got) == hash(want) and repr(got) == repr(want)
    assert list(got) == sorted(want)
    assert set(peeled.recovered) <= got and got | {-1} == want | {-1} and got - {0} == want - {0}
    outside = min(set(range(frame.users)) - want)
    assert outside not in got and frame.users not in got and -1 not in got and "0" not in got
    with pytest.raises(ValueError):
        got.mask[outside] = True


def test_oracle_rejects_a_report_of_another_frame():
    frame = four_user_frame()
    with pytest.raises(ValueError):
        ge_oracle(frame, peeled=batched_bp(frame, {0: frame.payloads[0]}))
    other = frame_from_batches([b"a"] * 3, [(0, (0, 1, 2), [[1], [1], [1]])])
    with pytest.raises(ValueError):
        ge_oracle(frame, peeled=batched_bp(other))


def test_oracle_raises_on_a_corrupt_frame():
    corrupted = corrupted_two_slot_frame()
    # plain elimination never looks at payloads, so it cannot notice
    assert reference_ge_oracle(corrupted) == {0}
    with pytest.raises(FrameInconsistencyError):
        ge_oracle(corrupted)


@st.composite
def small_systems(draw):
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    dist = DegreeDistribution([w / sum(weights) for w in weights])
    users = draw(st.integers(1, 40))
    slots = draw(st.integers(dist.max_degree, 50))
    cap = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    frame = sample_frame(SystemConfig(
        users=users, slots=slots, dist=dist, model=PncModel.example(cap), seed=seed, payload_len=2,
    ))
    given_users = draw(st.sets(st.integers(0, users - 1), max_size=users))
    return frame, {u: frame.payloads[u] for u in given_users}


@settings(max_examples=150, deadline=None, database=None)
@given(small_systems())
def test_decoder_dominance_property(system):
    frame, pre = system
    plain = ordinary_bp(frame, pre)
    batched = batched_bp(frame, pre)
    oracle = ge_oracle(frame, pre)
    assert set(plain.recovered) <= set(batched.recovered) <= oracle
    assert oracle == reference_ge_oracle(frame, pre)
    for report in (plain, batched):
        for u, payload in report.recovered.items():
            assert payload == frame.payloads[u]
    assert_same_peels(frame, pre)
