import functools
import hashlib
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

import ncsa.frames
from ncsa.frames import (
    Batch,
    DegreeDistribution,
    Frame,
    Stream,
    SystemConfig,
    as_words,
    global_matrix,
    offsets,
    sample_frame,
    slot_degree_histogram,
    xor_gather,
)
from ncsa.gf2 import BitMatrix, combine, mask_dtype, rank
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
        cols, masks = fam.sample(_slot_rng(config.seed, t), 1)
        transfer = BitMatrix(len(users), int(cols[0]), masks[0, :cols[0]].tolist())
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


def reference_probabilities(probs):
    """The probabilities as the list form builds them: one float at a
    time, trailing zeros popped."""
    arr = [float(p) for p in probs]
    while len(arr) > 1 and arr[-1] == 0.0:
        arr.pop()
    return np.asarray(arr, dtype=float)


@pytest.mark.parametrize(
    "probs",
    [
        [1.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.25, 0.0, 0.75, 0.0],
        [0.1, 0.2, 0.3, 0.4],
        [*np.random.default_rng(3).dirichlet(np.ones(30)).tolist(), 0.0, 0.0, 0.0],
    ],
)
def test_distribution_from_an_array_equals_the_list_form(probs):
    # a list, a tuple, an array and a strided view of one
    for given in (list(probs), tuple(probs), np.array(probs), np.repeat(np.array(probs), 2)[::2]):
        d = DegreeDistribution(given)
        reference = reference_probabilities(given)
        assert d.p.tobytes() == reference.tobytes()
        cum = np.cumsum(reference)
        cum[-1] = 1.0
        assert d._cum.tobytes() == cum.tobytes()


def test_distribution_validates_an_array_as_a_list():
    for bad in ([], [0.0, 0.0], [-0.1, 1.1], [0.7], [[0.5, 0.5]]):
        for given in (bad, np.array(bad)):
            with pytest.raises(ValueError):
                DegreeDistribution(given)


def reference_node_deriv(dist, y):
    """Horner's rule with a new value per step, on a scalar or an array."""
    acc = 0.0
    for i in range(len(dist.p), 0, -1):
        acc = acc * y + i * dist.p[i - 1]
    return acc


def test_node_deriv_of_an_array_equals_the_scalar_form_bit_for_bit():
    rng = np.random.default_rng(4)
    y = np.concatenate([rng.random(300), [0.0, 1.0, -0.5, 2.0]])
    given = y.copy()
    for dist in (DegreeDistribution({3: 1.0}), DegreeDistribution({1: 0.25, 2: 0.25, 4: 0.5}),
                 DegreeDistribution(rng.dirichlet(np.ones(30)))):
        got = dist.node_deriv(y)
        scalars = np.array([dist.node_deriv(float(v)) for v in y])
        assert got.tobytes() == scalars.tobytes() == reference_node_deriv(dist, y).tobytes()
        assert scalars.tobytes() == np.array([reference_node_deriv(dist, float(v)) for v in y]).tobytes()
        assert dist.node_deriv(y.reshape(4, -1)).tobytes() == got.tobytes()
    assert y.tobytes() == given.tobytes()  # the argument is left as it was


def test_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution({})
    with pytest.raises(ValueError):
        DegreeDistribution({1: -0.1, 2: 1.1})
    with pytest.raises(ValueError):
        DegreeDistribution({1: 0.7})
    with pytest.raises(ValueError):
        DegreeDistribution({0: 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_distribution_rejects_non_finite_probabilities(bad):
    for given in ([0.5, bad], {1: 0.5, 2: bad}, np.array([bad, 0.5, 0.0])):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            DegreeDistribution(given)
    with pytest.raises(ValueError, match="probabilities must be finite"):
        DegreeDistribution.from_pairs(f"1:0.5,2:{bad}")
    with pytest.raises(ValueError, match="edge weights must be finite"):
        DegreeDistribution.from_edge_weights([0.5, bad])


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


def test_config_bounds_the_sort_key_and_the_seed():
    # the (slot, user) key slot * users + user must fit in int64
    dist = DegreeDistribution({3: 1.0})
    SystemConfig(users=2, slots=2**62, dist=dist, model=small_model())  # largest key 2**63 - 1
    with pytest.raises(ValueError, match=r"users \* slots must be at most 2\*\*63"):
        SystemConfig(users=2, slots=2**62 + 1, dist=dist, model=small_model())
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SystemConfig(users=5, slots=10, dist=dist, model=small_model(), seed=-1)


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
    # slot, five (distinct with chance 0.09) from random sort keys per row
    n, users = 6, 24_000
    cfg = SystemConfig(users=users, slots=n, dist=DegreeDistribution({degree: 1.0}), model=small_model(),
                       seed=5, payload_len=0)
    seen = Counter(user_slots(sample_frame(cfg)))
    subsets = list(combinations(range(n), degree))
    assert set(seen) == set(subsets)  # 20 subsets of size 3, 6 of size 5
    assert stats.chisquare([seen[s] for s in subsets]).pvalue > 0.01


@pytest.mark.parametrize("d, n", [(3, 40), (5, 6), (12, 12)])
def test_distinct_rows_are_subsets_of_the_slots(d, n):
    # (3, 40) resamples rows that repeat a slot; (5, 6) and (12, 12) take the
    # d smallest of n sort keys
    rows = ncsa.frames._distinct_rows(Stream(1), 700, d, n)
    assert rows.shape == (700, d) and rows.dtype == np.int64
    assert rows.min() >= 0 and rows.max() < n
    assert all(len(set(row)) == d for row in rows.tolist())


def test_a_small_key_block_draws_the_same_dense_rows(monkeypatch):
    # the dense draw makes its sort keys a block of rows at a time, and the
    # stream is counter-based, so the block size cannot change a frame
    cfg = SystemConfig(users=500, slots=9, dist=DegreeDistribution({2: 0.5, 8: 0.5}), model=small_model(),
                       seed=2, payload_len=4)
    want = sample_frame(cfg)
    for block in (1, 9, 50):
        monkeypatch.setattr(ncsa.frames, "_KEY_BLOCK", block)
        assert sample_frame(cfg) == want


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
    # a sampled frame encodes its own outputs, so none can mismatch
    assert frame.mismatched_outputs.dtype == np.int64 and frame.mismatched_outputs.shape == (0,)
    assert not frame.mismatched_outputs.flags.writeable
    rebuilt = Frame(n_slots=frame.n_slots, payload_len=frame.payload_len, payloads=frame.payloads,
                    batches=frame.batches)
    assert rebuilt == frame
    assert rebuilt.mismatched_outputs.tolist() == []
    assert rebuilt.payloads == frame.payloads and rebuilt.batches == frame.batches


@pytest.mark.parametrize("custom", [False, True], ids=["stock", "custom"])
def test_sample_frame_builds_no_bitmatrix(monkeypatch, custom):
    # within the cap a custom size-2 family mixes one- and two-column members
    model = PncModel.from_dict({
        "max_decodable": 2,
        "families": {
            "1": [{"matrix": [[1]], "prob": 1.0}],
            "2": [{"matrix": [[1], [1]], "prob": 0.5}, {"matrix": [[1, 0], [0, 1]], "prob": 0.5}],
        },
    }) if custom else small_model()
    dist = DegreeDistribution({1: 0.3, 2: 0.4, 3: 0.3})
    config = SystemConfig(users=300, slots=150, dist=dist, model=model, seed=5, payload_len=2)
    first = sample_frame(config)  # builds every family the frame draws from

    def refuse(self, *args, **kwargs):
        raise AssertionError("sample_frame built a BitMatrix")

    monkeypatch.setattr(BitMatrix, "__init__", refuse)
    assert sample_frame(config) == first


@pytest.mark.parametrize(
    "dist, cap, users, slots, payload_len, seeds, digest",
    [
        (   # the `small-frames` benchmark frames
            "1:0.15,2:0.35,3:0.3,4:0.2", 5, 50, 60, 2, range(50),
            "cc496b6b9883fbe4642c182af36459785f080eb6c059d93c8d8ef3b96e68cb68",
        ),
        (   # slots of 60 to 80 users, whose column masks outgrow int64
            "1:1", 90, 140, 2, 4, range(2),
            "70cdf72ec5c9f22c55d85ade4cfa84f65a696c02b9c6af27d598b3248d3e07ab",
        ),
    ],
    ids=["small-frames", "wide-masks"],
)
def test_stock_frames_are_pinned(dist, cap, users, slots, payload_len, seeds, digest):
    """SHA-256 of the frame arrays that stock seeds draw: a change to how a
    stock frame is sampled moves it, and bumps the simulate schema."""
    model = PncModel.example(cap)
    h = hashlib.sha256()
    for seed in seeds:
        frame = sample_frame(SystemConfig(users=users, slots=slots, dist=DegreeDistribution.from_pairs(dist),
                                          model=model, payload_len=payload_len, seed=seed))
        for name in ("payload_rows", "batch_slot", "batch_ptr", "batch_users", "column_ptr", "outputs"):
            h.update(np.ascontiguousarray(getattr(frame, name)).tobytes())
        h.update(repr(frame.column_masks.tolist()).encode())
    assert h.hexdigest() == digest


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


# --- segment XOR: the gather-XOR against the reduceat kernel it replaced and a byte-by-byte reference


def xor_segments(rows, ptr):
    """XOR of each CSR segment ``rows[ptr[i]:ptr[i + 1]]`` of a C-contiguous
    2-D uint8 array, one row per segment; an empty segment gives a zero row.

    The kernel `xor_gather` ran on each gathered block before it grouped
    segments by length: single-row segments are copied, and one
    `np.bitwise_xor.reduceat` over word views runs over the others.
    """
    words = as_words(rows)
    out = np.zeros((len(ptr) - 1, words.shape[1]), dtype=words.dtype)
    count = ptr[1:] - ptr[:-1]
    single = (count == 1).nonzero()[0]
    out[single] = np.take(words, ptr[single], axis=0)
    many = (count > 1).nonzero()[0]
    if len(many):
        # each segment's start and end, so that the rows between two of
        # them reduce into a row of their own, which is dropped; the last
        # end is left out when it is the end of `rows`, as reduceat needs
        bounds = ptr[(many[:, None] + (0, 1)).ravel()]
        out[many] = np.bitwise_xor.reduceat(words, bounds[:-1] if bounds[-1] == len(words) else bounds, axis=0)[::2]
    return out.view(np.uint8)


def reference_xor_segments(rows, ptr):
    """XOR each segment byte by byte, in Python."""
    out = []
    for start, end in zip(ptr[:-1], ptr[1:]):
        acc = [0] * rows.shape[1]
        for row in rows[start:end].tolist():
            acc = [a ^ b for a, b in zip(acc, row)]
        out.append(acc)
    return np.array(out, np.uint8).reshape(len(ptr) - 1, rows.shape[1])


def assert_gather_matches_the_references(src, index, ptr):
    got = xor_gather(src, index, ptr)
    gathered = np.take(src, index, axis=0)
    assert got.dtype == np.uint8 and got.shape == (len(ptr) - 1, src.shape[1])
    assert got.tobytes() == xor_segments(gathered, ptr).tobytes()
    assert got.tolist() == reference_xor_segments(gathered, ptr).tolist()


@pytest.mark.parametrize("width", [0, 1, 2, 3, 5, 8, 12, 32])
@pytest.mark.parametrize(
    "counts",
    [
        [],
        [0, 0],
        [1, 1, 1],
        [3],
        [2, 0, 1],
        # single-row segments after the last multi-row one, which a reduce
        # over the multi-row starts alone would fold into it
        [0, 4, 1, 0, 1, 1],
        [1, 3, 2, 1, 0, 5, 1],
    ],
)
def test_xor_segments_matches_a_byte_by_byte_reference(counts, width):
    rng = np.random.default_rng(len(counts) * 100 + width)
    ptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64)
    rows = rng.integers(0, 256, (int(ptr[-1]), width), dtype=np.uint8)
    got = xor_segments(rows, ptr)
    assert got.dtype == np.uint8 and got.shape == (len(counts), width)
    assert got.tolist() == reference_xor_segments(rows, ptr).tolist()


@pytest.mark.parametrize("block_rows", [1, 2, 7, None])
@pytest.mark.parametrize("width", [0, 1, 2, 3, 4, 8, 12, 32])
@pytest.mark.parametrize(
    "counts",
    [
        [],
        [0, 0],
        [1, 1, 1],
        [3],
        [2, 0, 1],
        [0, 4, 1, 0, 1, 1],
        [1, 3, 2, 1, 0, 5, 1],
        # segments longer than a block, between empty and single-row ones
        [0, 17, 0, 1, 9, 0],
        # every length from 0 to 12, in two orders
        list(range(13)),
        [12, 0, 7, 3, 11, 1, 9, 5, 2, 10, 4, 8, 6],
        # length groups of more segments than a block holds, interleaved
        [2, 3] * 9 + [1] * 8,
        # lengths past a byte's range
        [255, 1, 256],
    ],
)
def test_xor_gather_equals_xor_segments_of_the_gather(monkeypatch, counts, width, block_rows):
    """Any block size, one row included, gives the unblocked result: empty,
    single-row and longer-than-a-block segments, length groups split across
    blocks, each word width and zero-width rows."""
    if block_rows is not None:
        monkeypatch.setattr(ncsa.frames, "_GATHER_BYTES", block_rows * width)
    rng = np.random.default_rng(len(counts) * 100 + width)
    ptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)]).astype(np.int64)
    src = rng.integers(0, 256, (11, width), dtype=np.uint8)
    assert_gather_matches_the_references(src, rng.integers(0, len(src), int(ptr[-1])), ptr)


def test_xor_gather_equals_xor_segments_of_the_gather_on_random_segments(monkeypatch):
    rng = np.random.default_rng(6)
    for width in (0, 1, 2, 4, 6, 8, 16):
        for _ in range(30):
            monkeypatch.setattr(ncsa.frames, "_GATHER_BYTES", int(rng.integers(1, 40)) * width)
            counts = rng.choice([0, 1, 1, 1, 2, 3, 7, 50], size=rng.integers(1, 40))
            ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            src = rng.integers(0, 256, (int(rng.integers(1, 30)), width), dtype=np.uint8)
            assert_gather_matches_the_references(src, rng.integers(0, len(src), int(ptr[-1])), ptr)


def test_xor_gather_reads_segments_from_any_offset():
    # CSR offsets that start past 0 and skip rows of `index`, as a slice of a larger CSR does
    rng = np.random.default_rng(7)
    src = rng.integers(0, 256, (9, 8), dtype=np.uint8)
    index = rng.integers(0, 9, 30)
    ptr = np.array([4, 4, 6, 7, 12, 15])
    want = [reference_xor_segments(np.take(src, index[a:b], axis=0), [0, b - a])[0].tolist()
            for a, b in zip(ptr[:-1], ptr[1:])]
    assert xor_gather(src, index, ptr).tolist() == want


def test_a_tiny_gather_block_draws_the_same_frames(monkeypatch):
    model = small_model()
    dist = DegreeDistribution({1: 0.15, 2: 0.35, 3: 0.3, 4: 0.2})
    configs = [SystemConfig(users=300, slots=200, dist=dist, model=model, seed=seed, payload_len=width)
               for seed, width in ((0, 2), (1, 3), (2, 8), (3, 32))]
    want = [sample_frame(config) for config in configs]
    monkeypatch.setattr(ncsa.frames, "_GATHER_BYTES", 1)
    for config, frame in zip(configs, want):
        got = sample_frame(config)
        assert got == frame and got.members.tobytes() == frame.members.tobytes()
        assert got.member_ptr.tobytes() == frame.member_ptr.tobytes()


def test_xor_segments_matches_the_reference_on_random_segments():
    rng = np.random.default_rng(5)
    for width in (1, 6, 16):
        for _ in range(30):
            counts = rng.choice([0, 1, 1, 1, 2, 3, 7], size=rng.integers(1, 40))
            ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            rows = rng.integers(0, 256, (int(ptr[-1]), width), dtype=np.uint8)
            assert xor_segments(rows, ptr).tolist() == reference_xor_segments(rows, ptr).tolist()


# --- member lists, member masks and transfer draws against the replaced forms ----

# a custom family whose size-3 members have up to three columns
WIDE_MODEL = {
    "max_decodable": 3,
    "families": {
        "1": [{"matrix": [[1]], "prob": 1.0}],
        "2": [{"matrix": [[1, 0], [0, 1]], "prob": 0.5}, {"matrix": [[1], [1]], "prob": 0.5}],
        "3": [
            {"matrix": [[1, 0, 0], [1, 1, 0], [0, 1, 1]], "prob": 0.5},
            {"matrix": [[1, 1, 1], [0, 1, 1], [0, 0, 1]], "prob": 0.3},
            {"matrix": [[1, 0], [0, 1], [1, 1]], "prob": 0.2},
        ],
    },
}


def packed_shape_bits(frame):
    """The bits `decoders._batch_shape_ids` packs a batch shape of `frame`
    into: the row count, the column count and one field per column."""
    rows, cols = np.diff(frame.batch_ptr), np.diff(frame.column_ptr)
    top = int(cols.max(initial=0))
    mask_bits = int(max(frame.column_masks.tolist(), default=0)).bit_length()
    return int(rows.max(initial=0)).bit_length() + top.bit_length() + top * mask_bits


DIFFERENTIAL_CASES = [*(f"cap-{cap}" for cap in range(2, 13)), "cap-30", "object-masks", "three-columns", "empty"]


@functools.cache
def differential_frame(name):
    """(model, frame) of a differential test case of the array paths that
    replaced a multi-column numpy form: stock frames at caps 2 to 12, whose
    larger slots are past the cap and have no columns; a cap-30 frame whose
    packed batch shapes need more than 63 bits; a frame whose masks outgrow
    int64; a custom family with three-column members; and the empty frame."""
    if name == "empty":
        return PncModel.example(4), Frame(n_slots=3, payload_len=1, payloads=(b"a", b"b"), batches=())
    if name == "three-columns":
        model = PncModel.from_dict(WIDE_MODEL)
        dist = DegreeDistribution({1: 0.2, 2: 0.3, 3: 0.5})
        frame = sample_frame(SystemConfig(users=400, slots=300, dist=dist, model=model, seed=0, payload_len=2))
        assert np.diff(frame.column_ptr).max() == 3
        return model, frame
    if name == "cap-30":
        model = PncModel.example(30)
        frame = sample_frame(SystemConfig(users=330, slots=12, dist=DegreeDistribution({1: 1.0}), model=model,
                                          seed=1, payload_len=2))
        assert packed_shape_bits(frame) > 63 and frame.column_masks.dtype == np.int64
        return model, frame
    if name == "object-masks":
        model = PncModel.example(90)
        frame = sample_frame(SystemConfig(users=140, slots=2, dist=DegreeDistribution({1: 1.0}), model=model,
                                          seed=0, payload_len=2))
        assert frame.column_masks.dtype == object
        return model, frame
    cap = int(name.removeprefix("cap-"))
    model = PncModel.example(cap)
    dist = DegreeDistribution({1: 0.2, 2: 0.3, 4: 0.3, 6: 0.2})
    frame = sample_frame(SystemConfig(users=300, slots=150, dist=dist, model=model, seed=cap, payload_len=2))
    assert np.diff(frame.batch_ptr).max() > cap  # slots past the cap
    return model, frame


def reference_members(batch_ptr, batch_users, column_ptr, column_masks):
    """`frames._members` by a 2-D `nonzero` of the unpacked masks."""
    width = (int(column_masks.max(initial=0)).bit_length() + 7) // 8
    if column_masks.dtype == object:
        raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in column_masks.tolist()), np.uint8)
    else:
        raw = column_masks.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)[:, :width]
    column, row = np.unpackbits(raw.reshape(len(column_masks), width), axis=1, bitorder="little").nonzero()
    row += np.repeat(batch_ptr[:-1], column_ptr[1:] - column_ptr[:-1])[column]
    return np.take(batch_users, row), offsets(np.bincount(column, minlength=len(column_masks)))


def reference_member_sample(fam, rng, count):
    """`_MemberSampler.sample` with the masks summed over the middle axis
    of a (count, degree, width) product."""
    picks = np.searchsorted(fam._cum, rng.random(count))
    if fam.degree == 1 or not fam._masks.shape[1]:
        return fam._cols[picks], np.take(fam._masks, picks, axis=0)
    pos = np.argsort(rng.random((count, fam.degree)), axis=1)
    ones = np.ones(pos.shape, dtype=mask_dtype(fam.degree))
    masks = (np.left_shift(ones, pos)[:, :, None] * np.take(fam._bits, picks, axis=0)).sum(axis=1)
    return fam._cols[picks], masks


def reference_draw_transfers(model, rng, sizes):
    """`frames._draw_transfers` with each size's batches found by a compare
    over all sizes and the masks scattered by a 2-D boolean mask."""
    n_cols = np.zeros(len(sizes), dtype=np.int64)
    drawn = []
    for c in np.bincount(sizes).nonzero()[0].tolist():
        at = np.flatnonzero(sizes == c)
        n_cols[at], masks = model.family(c).sample(rng, len(at))
        drawn.append((at, masks))
    column_ptr = offsets(n_cols)
    column_masks = np.zeros(int(column_ptr[-1]), dtype=mask_dtype(int(sizes[n_cols > 0].max(initial=0))))
    for at, masks in drawn:
        pos = np.arange(masks.shape[1])
        held = pos < n_cols[at][:, None]
        column_masks[(column_ptr[at][:, None] + pos)[held]] = masks[held]
    return column_ptr, column_masks


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()


@pytest.mark.parametrize("name", DIFFERENTIAL_CASES)
def test_members_match_the_2d_nonzero_reference(name):
    _, frame = differential_frame(name)
    arrays = (frame.batch_ptr, frame.batch_users, frame.column_ptr, frame.column_masks)
    assert_same_arrays(ncsa.frames._members(*arrays), reference_members(*arrays))
    assert_same_arrays((frame.members, frame.member_ptr), reference_members(*arrays))


@pytest.mark.parametrize("name", DIFFERENTIAL_CASES)
def test_member_masks_match_the_middle_axis_sum_reference(name):
    model, frame = differential_frame(name)
    # every family the frame draws from, and one past its largest slot
    top = int(np.diff(frame.batch_ptr).max(initial=0))
    for d in range(1, top + 2):
        fam = model.family(d)
        for count in (0, 1, 257):
            got, want = Stream(d), Stream(d)
            assert_same_arrays(fam.sample(got, count), reference_member_sample(fam, want, count))
            assert got.drawn == want.drawn


@pytest.mark.parametrize("name", DIFFERENTIAL_CASES)
def test_transfer_draws_match_the_per_size_reference(name):
    model, frame = differential_frame(name)
    sizes = np.diff(frame.batch_ptr)
    got, want = Stream(7), Stream(7)
    assert_same_arrays(ncsa.frames._draw_transfers(model, got, sizes), reference_draw_transfers(model, want, sizes))
    assert got.drawn == want.drawn


# --- the counter-based stream ---------------------------------------------------

MASK64 = (1 << 64) - 1


def reference_mix64(z):
    """The output function of splitmix64.c."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_splitmix64(state, count):
    """Vigna's sequential splitmix64.c, transcribed: `count` outputs of
    ``next()`` from `state`.  The test-only reference of `Stream`."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        out.append(reference_mix64(state))
    return out


def stream_at(key):
    """A stream whose splitmix64 state before the first draw is `key`."""
    stream = Stream(0)
    stream.key = key
    return stream


def test_stream_is_splitmix64():
    known = [6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431,
             16408922859458223821]
    assert reference_splitmix64(1234567, 5) == known
    assert stream_at(1234567).words(5).tolist() == known
    for key in (0, 1, 1234567, 2**63, MASK64, Stream(31).key):
        assert stream_at(key).words(2000).tolist() == reference_splitmix64(key, 2000)


def test_stream_key_is_the_mixed_seed():
    for seed in (0, 1, 2, 31, 10**6, 2**63, MASK64):
        assert Stream(seed).key == reference_mix64(seed)
    # past 64 bits the words are folded in from the most significant
    assert Stream(2**64 + 5).key == reference_mix64(reference_mix64(1) ^ 5)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        Stream(-1)


def test_stream_seeds_past_64_bits_give_distinct_streams():
    seeds = [0, 1, 2, MASK64, 2**64, 2**64 + 1, 2**65, 2**64 * 3 + 7, 2**128, 2**128 + 1, 10**26, 10**40]
    assert len({Stream(seed).key for seed in seeds}) == len(seeds)
    assert len({tuple(Stream(seed).words(4).tolist()) for seed in seeds}) == len(seeds)
    small = {Stream(seed).key for seed in range(10_000)}
    assert len(small) == 10_000 and not small & {Stream(seed).key for seed in seeds[3:]}


def test_two_stream_draws_equal_one_draw_of_both():
    for k in (0, 1, 5, 64):
        one, two = Stream(9), Stream(9)
        assert np.concatenate([one.words(k), one.words(k)]).tolist() == two.words(2 * k).tolist()
        both = two.random(2 * k)
        assert np.concatenate([one.random(k), one.random(k)]).tobytes() == both.tobytes()
        assert one.bytes(8 * k) + one.bytes(8 * k) == two.bytes(16 * k)
        assert one.drawn == two.drawn == 2 * k + 2 * k + 2 * k


def test_stream_random_is_on_the_53_bit_grid_of_the_unit_interval():
    words = stream_at(77).words(50_000).tolist()
    got = stream_at(77).random((250, 200))
    assert got.shape == (250, 200) and got.dtype == np.float64
    assert got.ravel().tolist() == [(w >> 11) * 2.0 ** -53 for w in words]
    scaled = got * 2.0 ** 53
    assert np.all(scaled == np.floor(scaled)) and got.min() >= 0.0 and got.max() < 1.0

    class Extremes(Stream):
        __slots__ = ()

        def words(self, count):
            return np.array([MASK64, 0] * (count // 2), dtype=np.uint64)

    # the largest word gives the largest double below 1
    assert Extremes(0).random(2).tolist() == [1.0 - 2.0 ** -53, 0.0]


def reference_integers(key, n, count):
    """`Stream.integers(0, n, count)` in plain Python: each word masked to
    the bit length of n - 1, and the rejected positions drawn again in
    order, from the following words."""
    mask = (1 << (n - 1).bit_length()) - 1
    words = iter(reference_splitmix64(key, 4 * count + 64))
    vals = [next(words) & mask for _ in range(count)]
    redo = [i for i, v in enumerate(vals) if v >= n]
    rounds = 0
    while redo:
        rounds += 1
        for i in redo:
            vals[i] = next(words) & mask
        redo = [i for i in redo if vals[i] >= n]
    return vals, rounds


@pytest.mark.parametrize("n", [1, 2**32 + 1, 3 * 2**61])
def test_stream_integers_are_in_range_and_redrawn_past_it(n):
    stream = Stream(4)
    got = stream.integers(0, n, (40, 50))
    assert got.shape == (40, 50) and got.dtype == np.int64
    want, rounds = reference_integers(Stream(4).key, n, 2000)
    assert got.ravel().tolist() == want
    assert got.min() >= 0 and got.max() < n
    # values past n were rejected and drawn again, except where none can be
    assert (rounds > 0) == (n > 1) and (stream.drawn > 2000) == (n > 1)
    if n > 1:
        # thirds of the range are equally likely (fixed seed)
        thirds = np.bincount((got.ravel().astype(object) * 3 // n).astype(np.int64), minlength=3)
        assert stats.chisquare(thirds).pvalue > 0.01


def test_stream_integers_bounds():
    for low, high in ((0, 0), (0, -3), (1, 4), (-1, 3), (0, 2**63 + 1)):
        with pytest.raises(ValueError, match="integers draws from"):
            Stream(0).integers(low, high, 3)
    assert Stream(0).integers(0, 2**63, 1000).min() >= 0


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 640])
def test_stream_bytes_are_little_endian_words(length):
    stream = stream_at(1234567)
    got = stream.bytes(length)
    assert type(got) is bytes and len(got) == length
    words = reference_splitmix64(1234567, -(-length // 8))
    assert got == b"".join(w.to_bytes(8, "little") for w in words)[:length]
    assert stream.drawn == len(words)
