import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from ncsa.frames import (
    Batch,
    DegreeDistribution,
    Frame,
    SystemConfig,
    global_matrix,
    sample_frame,
    slot_degree_histogram,
)
from ncsa.gf2 import BitMatrix, combine, rank
from ncsa.pnc import PncModel, example_family


def small_model() -> PncModel:
    return PncModel.example(5)


# --- test-only references: the per-user, per-slot sampler and the loop histogram


def _user_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, index)))


def _slot_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, index)))


def _choose_slots(rng, degree, n):
    """Uniform ordered sample of `degree` distinct slots via partial shuffle."""
    chosen = []
    swapped = {}
    for j in range(degree):
        r = j + int(rng.integers(0, n - j))
        chosen.append(swapped.get(r, r))
        swapped[r] = swapped.get(j, j)
    return tuple(sorted(chosen))


def reference_sample_frame(config):
    """The frame sampler with one seeded generator per user and per slot,
    which `sample_frame` replaced by block draws from one generator: same
    distribution, different seed-to-frame mapping."""
    n = config.slots
    payloads = []
    occupants = {}
    for i in range(config.users):
        rng = _user_rng(config.seed, i)
        degree = config.dist.degree_from_uniform(float(rng.random()))
        slots = _choose_slots(rng, degree, n)
        payloads.append(rng.bytes(config.payload_len) if config.payload_len else b"")
        for t in slots:
            occupants.setdefault(t, []).append(i)
    batches = []
    for t in sorted(occupants):
        users = sorted(occupants[t])
        fam = config.model.family(len(users))
        transfer = fam.sample(_slot_rng(config.seed, t), 1)[0]
        outputs = tuple(combine([payloads[u] for u in users], transfer))
        batches.append(Batch(slot=t, users=tuple(users), transfer=transfer, outputs=outputs))
    return Frame(
        n_slots=n,
        payload_len=config.payload_len,
        payloads=tuple(payloads),
        batches=tuple(batches),
    )


def user_slots(frame):
    """Each user's slots, read back from the batches that list it, in batch order."""
    slots = [[] for _ in range(frame.users)]
    for batch in frame.batches:
        for u in batch.users:
            slots[u].append(batch.slot)
    return tuple(map(tuple, slots))


def reference_slot_degree_histogram(frame):
    per_slot = np.zeros(frame.n_slots, dtype=np.int64)
    for slots in user_slots(frame):
        for t in slots:
            per_slot[t] += 1
    return np.bincount(per_slot)


# --- degree distributions ----------------------------------------------------


def test_distribution_basics():
    d = DegreeDistribution({2: 0.5, 3: 0.5})
    assert d.max_degree == 3
    assert d.prob(2) == 0.5 and d.prob(1) == 0.0 and d.prob(7) == 0.0
    assert abs(d.mean() - 2.5) < 1e-15
    assert abs(d.node_poly(1.0) - 1.0) < 1e-15
    assert abs(d.node_poly(0.5) - (0.5 * 0.25 + 0.5 * 0.125)) < 1e-15
    assert abs(d.node_deriv(1.0) - d.mean()) < 1e-12


def test_distribution_from_sequence_trims_zeros():
    d = DegreeDistribution([0.0, 1.0, 0.0, 0.0])
    assert d.max_degree == 2
    assert d.prob(2) == 1.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution({})
    with pytest.raises(ValueError):
        DegreeDistribution({1: -0.1, 2: 1.1})
    with pytest.raises(ValueError):
        DegreeDistribution({1: 0.7})
    with pytest.raises(ValueError):
        DegreeDistribution({0: 1.0})


def test_distribution_pairs_round_trip():
    d = DegreeDistribution.from_pairs("1:0.2,3:0.8")
    assert d.prob(1) == 0.2 and d.prob(3) == 0.8 and d.prob(2) == 0.0
    again = DegreeDistribution.from_pairs(d.to_pairs())
    assert np.allclose(again.p, d.p)
    with pytest.raises(ValueError):
        DegreeDistribution.from_pairs("2:0.5,2:0.5")
    with pytest.raises(ValueError):
        DegreeDistribution.from_pairs("nope")


def test_edge_weights_round_trip():
    d = DegreeDistribution({1: 0.25, 2: 0.25, 4: 0.5})
    w = d.edge_weights()
    assert abs(float(w.sum()) - 1.0) < 1e-12
    back = DegreeDistribution.from_edge_weights(w)
    assert np.allclose(back.p, d.p, atol=1e-12)


def test_degree_from_uniform_covers_support():
    d = DegreeDistribution({1: 0.5, 3: 0.5})
    assert d.degree_from_uniform(0.0) == 1
    assert d.degree_from_uniform(0.4999) == 1
    assert d.degree_from_uniform(0.51) == 3
    assert d.degree_from_uniform(1.0) == 3


# --- configs ----------------------------------------------------------------


def test_config_validation():
    dist = DegreeDistribution({3: 1.0})
    with pytest.raises(ValueError):
        SystemConfig(users=0, slots=10, dist=dist, model=small_model())
    with pytest.raises(ValueError):
        SystemConfig(users=5, slots=2, dist=dist, model=small_model())
    with pytest.raises(ValueError):
        SystemConfig(users=5, slots=10, dist=dist, model=small_model(), payload_len=-1)
    cfg = SystemConfig(users=5, slots=10, dist=dist, model=small_model())
    assert cfg.rate == 0.5
    assert abs(cfg.offered_load - 1.5) < 1e-15


# --- sampling ----------------------------------------------------------------


def test_single_user_single_slot():
    dist = DegreeDistribution({1: 1.0})
    cfg = SystemConfig(users=1, slots=1, dist=dist, model=small_model(), seed=3)
    frame = sample_frame(cfg)
    assert user_slots(frame) == ((0,),)
    assert len(frame.batches) == 1
    batch = frame.batches[0]
    assert batch.users == (0,)
    assert batch.transfer == BitMatrix.from_rows([[1]])
    assert batch.outputs == (frame.payloads[0],)


def test_forced_two_user_collision_uses_pair_family():
    dist = DegreeDistribution({1: 1.0})
    cfg = SystemConfig(users=2, slots=1, dist=dist, model=small_model(), seed=11)
    frame = sample_frame(cfg)
    (batch,) = frame.batches
    assert batch.users == (0, 1)
    members = {m for m, _ in example_family(2)}
    assert batch.transfer in members


def test_determinism_and_seed_sensitivity():
    dist = DegreeDistribution({2: 0.5, 3: 0.5})
    cfg = SystemConfig(users=50, slots=80, dist=dist, model=small_model(), seed=42)
    a = sample_frame(cfg)
    b = sample_frame(cfg)
    assert a == b
    c = sample_frame(SystemConfig(users=50, slots=80, dist=dist, model=small_model(), seed=43))
    assert a != c


def test_slot_choices_distinct_and_degree_from_dist():
    dist = DegreeDistribution({2: 0.5, 4: 0.5})
    cfg = SystemConfig(users=300, slots=40, dist=dist, model=small_model(), seed=1)
    frame = sample_frame(cfg)
    for slots in user_slots(frame):
        assert len(slots) in (2, 4)
        assert len(set(slots)) == len(slots)
        assert all(0 <= t < 40 for t in slots)
        assert list(slots) == sorted(slots)


def test_outputs_match_ground_truth_recomputation():
    dist = DegreeDistribution({1: 0.3, 2: 0.4, 3: 0.3})
    cfg = SystemConfig(users=120, slots=60, dist=dist, model=small_model(), seed=9)
    frame = sample_frame(cfg)
    occupied = set()
    for batch in frame.batches:
        occupied.add(batch.slot)
        assert list(batch.users) == sorted(batch.users)
        assert batch.transfer.rows == len(batch.users)
        if batch.transfer.cols:
            assert rank(batch.transfer) == batch.transfer.cols
            assert len(batch.users) <= 5  # cap respected when decoding happened
        expected = combine([frame.payloads[u] for u in batch.users], batch.transfer)
        assert list(batch.outputs) == expected
    # batches exist exactly for occupied slots, each holding the users that chose it
    occupants = {}
    for u, slots in enumerate(user_slots(frame)):
        for t in slots:
            occupants.setdefault(t, []).append(u)
    assert occupied == set(occupants)
    assert [b.slot for b in frame.batches] == sorted(occupants)
    assert all(list(b.users) == occupants[b.slot] for b in frame.batches)


def test_above_cap_collision_decodes_nothing():
    dist = DegreeDistribution({6: 1.0})
    cfg = SystemConfig(users=30, slots=6, dist=dist, model=small_model(), seed=2)
    frame = sample_frame(cfg)
    # every slot holds all 30 users: far above the cap of 5
    for batch in frame.batches:
        assert batch.users == tuple(range(30))
        assert batch.transfer.cols == 0
        assert batch.outputs == ()


def test_zero_payload_length():
    dist = DegreeDistribution({2: 1.0})
    cfg = SystemConfig(users=20, slots=30, dist=dist, model=small_model(), seed=4, payload_len=0)
    frame = sample_frame(cfg)
    assert all(p == b"" for p in frame.payloads)
    for batch in frame.batches:
        assert all(o == b"" for o in batch.outputs)


def test_payload_lengths_uniform():
    dist = DegreeDistribution({1: 1.0})
    cfg = SystemConfig(users=10, slots=12, dist=dist, model=small_model(), seed=6, payload_len=7)
    frame = sample_frame(cfg)
    assert all(len(p) == 7 for p in frame.payloads)


# --- histogram ----------------------------------------------------------------


def test_histogram_counts_sum_to_slots():
    dist = DegreeDistribution({2: 1.0})
    cfg = SystemConfig(users=100, slots=150, dist=dist, model=small_model(), seed=8)
    frame = sample_frame(cfg)
    hist = slot_degree_histogram(frame)
    assert int(hist.sum()) == 150
    # total transmissions = sum over degrees of d * count
    assert int((np.arange(len(hist)) * hist).sum()) == 200


def test_histogram_empty_frame():
    frame = Frame(n_slots=5, payload_len=0, payloads=(), batches=())
    hist = slot_degree_histogram(frame)
    assert hist.tolist() == [5]


def test_degree_frequencies_chi_square_smoke():
    # fixed seed; p is about 0.14
    dist = DegreeDistribution({1: 0.2, 2: 0.5, 4: 0.3})
    cfg = SystemConfig(users=100_000, slots=200, dist=dist, model=small_model(), seed=77, payload_len=0)
    frame = sample_frame(cfg)
    counts = {1: 0, 2: 0, 4: 0}
    for slots in user_slots(frame):
        counts[len(slots)] += 1
    observed = [counts[1], counts[2], counts[4]]
    expected = [100_000 * p for p in (0.2, 0.5, 0.3)]
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.01


def test_slot_histogram_near_poisson_smoke():
    dist = DegreeDistribution({2: 1.0})
    cfg = SystemConfig(users=20_000, slots=40_000, dist=dist, model=small_model(), seed=21, payload_len=0)
    hist = slot_degree_histogram(sample_frame(cfg))
    emp = hist / hist.sum()
    lam = 1.0
    pois = [math.exp(-lam) * lam**d / math.factorial(d) for d in range(len(emp))]
    tv = 0.5 * (np.abs(emp - pois).sum() + (1.0 - sum(pois)))
    assert tv < 0.05


@pytest.mark.parametrize("degree", [3, 5])
def test_slot_subsets_are_uniform(degree):
    # n = 6: three distinct slots come from resampling rows that repeat a
    # slot, five (distinct with chance 0.09) from `choice` per row
    n, users = 6, 24_000
    cfg = SystemConfig(users=users, slots=n, dist=DegreeDistribution({degree: 1.0}), model=small_model(),
                       seed=5, payload_len=0)
    seen = Counter(user_slots(sample_frame(cfg)))
    subsets = list(combinations(range(n), degree))
    assert set(seen) == set(subsets)  # 20 subsets of size 3, 6 of size 5
    assert stats.chisquare([seen[s] for s in subsets]).pvalue > 0.01


def test_every_slot_taken_when_degree_equals_slots():
    cfg = SystemConfig(users=200, slots=12, dist=DegreeDistribution({12: 1.0}), model=small_model(), seed=3)
    frame = sample_frame(cfg)
    assert user_slots(frame) == (tuple(range(12)),) * 200
    assert [b.users for b in frame.batches] == [tuple(range(200))] * 12


def test_collision_sizes_match_the_reference_sampler():
    # two-sample chi-square on collision-size counts pooled over four frames
    # (load 2 per slot); sizes from 6 up share one bin, so every expected
    # count is well above 5
    def pooled(sampler):
        total = np.zeros(32, dtype=np.int64)
        for seed in range(4):
            cfg = SystemConfig(users=3000, slots=3000, dist=DegreeDistribution({1: 0.3, 2: 0.4, 3: 0.3}),
                               model=small_model(), seed=seed, payload_len=0)
            hist = slot_degree_histogram(sampler(cfg))
            total[:len(hist)] += hist
        return [*total[:6], total[6:].sum()]

    assert stats.chi2_contingency([pooled(sample_frame), pooled(reference_sample_frame)]).pvalue > 0.01


def test_histogram_matches_loop():
    hand_built = [
        Frame(n_slots=5, payload_len=0, payloads=(), batches=()),
        Frame(n_slots=3, payload_len=0, payloads=(b"", b""), batches=()),
        Frame(n_slots=1, payload_len=1, payloads=(b"a",) * 4,
              batches=(Batch(slot=0, users=(0, 1, 2, 3), transfer=BitMatrix(4, 0), outputs=()),)),
    ]
    rng = np.random.default_rng(0)
    drawn = [
        sample_frame(SystemConfig(
            users=int(rng.integers(1, 300)), slots=int(rng.integers(4, 300)),
            dist=DegreeDistribution({1: 0.25, 2: 0.25, 4: 0.5}), model=small_model(), seed=seed, payload_len=0,
        ))
        for seed in range(20)
    ]
    for frame in hand_built + drawn:
        assert slot_degree_histogram(frame).tolist() == reference_slot_degree_histogram(frame).tolist()
    assert slot_degree_histogram(hand_built[0]).tolist() == [5]


# --- CSR arrays --------------------------------------------------------------------


def test_csr_arrays_agree_with_the_batches():
    dist = DegreeDistribution({1: 0.3, 2: 0.4, 3: 0.3})
    frame = sample_frame(SystemConfig(users=120, slots=60, dist=dist, model=small_model(), seed=9, payload_len=3))
    columns = [(b.users, m, o) for b in frame.batches for m, o in zip(b.transfer.column_masks(), b.outputs)]
    assert len(columns) == len(frame.outputs) == len(frame.member_ptr) - 1
    for e, (users, mask, output) in enumerate(columns):
        members = frame.members[frame.member_ptr[e]:frame.member_ptr[e + 1]].tolist()
        assert members == [u for pos, u in enumerate(users) if mask >> pos & 1]
        assert frame.outputs[e].tobytes() == output
    assert frame.mismatched_outputs.tolist() == []
    rebuilt = Frame(n_slots=frame.n_slots, payload_len=frame.payload_len, payloads=frame.payloads,
                    batches=frame.batches)
    assert rebuilt == frame
    assert rebuilt.payloads == frame.payloads and rebuilt.batches == frame.batches


def test_hand_built_frame_flags_outputs_that_disagree_with_its_payloads():
    payloads = (b"a", b"b")
    good = Batch(slot=0, users=(0, 1), transfer=BitMatrix.from_rows([[1], [1]]), outputs=(bytes([ord("a") ^ ord("b")]),))
    bad = Batch(slot=3, users=(1,), transfer=BitMatrix.from_rows([[1]]), outputs=(b"z",))
    frame = Frame(n_slots=4, payload_len=1, payloads=payloads, batches=(bad, good))
    assert frame.mismatched_outputs.tolist() == [0]
    assert frame.batch_slot.tolist() == [3, 0]
    with pytest.raises(ValueError):
        Frame(n_slots=4, payload_len=2, payloads=payloads, batches=())
    with pytest.raises(ValueError):
        Frame(n_slots=4, payload_len=1, payloads=payloads, batches=(Batch(0, (0, 2), BitMatrix(2, 0), ()),))


# --- global matrix ----------------------------------------------------------------


def test_global_matrix_single_batch():
    payloads = tuple(bytes([i]) for i in range(4))
    h = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1]])
    outputs = tuple(combine(list(payloads), h))
    frame = Frame(
        n_slots=1,
        payload_len=1,
        payloads=payloads,
        batches=(Batch(slot=0, users=(0, 1, 2, 3), transfer=h, outputs=outputs),),
    )
    assert global_matrix(frame).to_rows() == h.to_rows()


def test_global_matrix_empty_and_column_count():
    empty = Frame(n_slots=3, payload_len=0, payloads=(b"", b""), batches=())
    g = global_matrix(empty)
    assert (g.rows, g.cols) == (2, 0)

    dist = DegreeDistribution({2: 1.0})
    cfg = SystemConfig(users=40, slots=30, dist=dist, model=small_model(), seed=14)
    frame = sample_frame(cfg)
    g = global_matrix(frame)
    assert g.rows == 40
    assert g.cols == sum(b.transfer.cols for b in frame.batches)
