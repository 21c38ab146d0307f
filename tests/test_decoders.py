import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncsa.decoders
from ncsa.cli import main
from ncsa.decoders import (
    DecodeReport,
    FrameInconsistencyError,
    batched_bp,
    ge_oracle,
    ordinary_bp,
)
from ncsa.frames import Batch, DegreeDistribution, Frame, SystemConfig, global_matrix, sample_frame
from ncsa.gf2 import BitMatrix, combine, rcef, select_rows, xor_bytes
from ncsa.pnc import PncModel


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
                        outputs[j] = xor_bytes(outputs[j], payload)
                        ops += 1
            reduced, values, spent = rcef(select_rows(transfer, unknown_pos), outputs)
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


def assert_same_peels(frame, pre=None, max_iters=200):
    """Both peelers report exactly what their references report."""
    for peel, reference in ((batched_bp, reference_batched_bp), (ordinary_bp, reference_ordinary_bp)):
        got = peel(frame, pre, max_iters)
        want = reference(frame, pre, max_iters)
        assert got.recovered == want.recovered
        assert got.iterations == want.iterations
        assert got.per_iteration == want.per_iteration
        assert got.field_ops == want.field_ops
        assert got.preknown == want.preknown


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
    with pytest.raises(FrameInconsistencyError):
        batched_bp(corrupted)
    with pytest.raises(FrameInconsistencyError):
        ordinary_bp(corrupted)


@pytest.mark.parametrize("corrupted", [cross_pass_corrupted_frame, unused_corrupt_output_frame])
def test_corruption_found_after_the_peel_raises(corrupted):
    frame = corrupted()
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
    """Without a wall clock: one elimination per distinct (shape, unknown
    mask) key, and the report counts them."""
    frame = sample_frame(SystemConfig(
        users=20_000, slots=40_000, dist=DegreeDistribution({3: 1.0}), model=PncModel.example(10), seed=1,
    ))
    keys = []
    calls = 0

    def recording_select_rows(matrix, rows):
        rows = tuple(rows)
        keys.append((matrix.rows, matrix.column_masks(), rows))
        return select_rows(matrix, rows)

    def counting_rcef(matrix, payloads):
        nonlocal calls
        calls += 1
        return rcef(matrix, payloads)

    monkeypatch.setattr(ncsa.decoders, "select_rows", recording_select_rows)
    monkeypatch.setattr(ncsa.decoders, "rcef", counting_rcef)
    report = batched_bp(frame)
    assert report.decoded_fraction == 1.0
    assert 0 < calls <= len(set(keys))
    assert report.eliminations == calls
    assert report.visits >= len(set(keys))


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
