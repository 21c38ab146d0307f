import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsa.cli import main
from ncsa.frames import Stream
from ncsa.gf2 import BitMatrix, mask_dtype, rank
from ncsa.pnc import (
    GAMMA_CACHE_GRIDS,
    PncModel,
    StockFamily,
    WeightedMatrixFamily,
    _counts_to_coeffs,
    _shape_rows,
    example_family,
    family_size,
    gamma_closed_form,
    gamma_k_enum,
    gamma_set,
)

GRID = [i / 20 for i in range(21)]


# --- independent oracle ----------------------------------------------------
# Solvability of the last packet from a batch, done with plain integer rows
# and exhaustive column-combination search; shares no code with ncsa.gf2.


def oracle_solvable(rows: list[list[int]], known: set[int]) -> bool:
    d = len(rows)
    unknown = [i for i in range(d) if i not in known]
    if (d - 1) not in unknown:
        return True
    cols = list(zip(*[rows[i] for i in unknown])) if rows[0] else []
    target = tuple(1 if i == len(unknown) - 1 else 0 for i in range(len(unknown)))
    for picks in itertools.product((0, 1), repeat=len(cols)):
        acc = [0] * len(unknown)
        for take, col in zip(picks, cols):
            if take:
                acc = [a ^ b for a, b in zip(acc, col)]
        if tuple(acc) == target:
            return True
    return False


def oracle_gamma_set(rows: list[list[int]]) -> set[frozenset[int]]:
    d = len(rows)
    out = set()
    for size in range(d):
        for subset in itertools.combinations(range(d - 1), size):
            if oracle_solvable(rows, set(subset)):
                out.add(frozenset(i + 1 for i in subset))  # 1-based
    return out


def representative_gamma_counts(d: int) -> list[Fraction]:
    """Qualifying-subset size counts for the stock family at size d, averaged
    over members, by enumerating the gamma set of one representative per
    (shape, target type).

    Permuting the first d-1 rows permutes the subsets without changing their
    sizes, so within one member shape every arrangement with the same
    target-row type has identical counts; each representative is weighted by
    the number of arrangements that share it.
    """
    t01, t10, t11 = (0, 1), (1, 0), (1, 1)
    weighted = [Fraction(0)] * d

    def add(rows, arrangements):
        for subset in gamma_set(BitMatrix.from_rows(rows)):
            weighted[len(subset)] += arrangements

    add([(1,)] * d, 1)
    shapes = [(a, d - a, 0) for a in range(1, d // 2 + 1)]
    shapes += [(a1, a2, d - a1 - a2) for a1 in range(1, d - 1) for a2 in range(a1, d - a1)]
    for a1, a2, a3 in shapes:
        for target, (r1, r2, r3) in ((t01, (a1 - 1, a2, a3)), (t10, (a1, a2 - 1, a3)), (t11, (a1, a2, a3 - 1))):
            if min(r1, r2, r3) < 0:
                continue
            arrangements = math.factorial(d - 1) // (
                math.factorial(r1) * math.factorial(r2) * math.factorial(r3)
            )
            add([t01] * r1 + [t10] * r2 + [t11] * r3 + [target], arrangements)
    g = Fraction(1, family_size(d))
    return [g * w for w in weighted]


def oracle_gamma_value(model: PncModel, k: int, x: float) -> float:
    total = 0.0
    for matrix, prob in model.family(k + 1):
        if matrix.cols == 0:
            continue
        for subset in oracle_gamma_set(matrix.to_rows()):
            s = len(subset)
            total += prob * x**s * (1 - x) ** (k - s)
    return total


# --- families ----------------------------------------------------------------


def test_family_counts():
    assert family_size(2) == 3
    assert family_size(3) == 10
    with pytest.raises(ValueError):
        family_size(1)


def test_family_counts_exact():
    # exact recount: all-ones + arrangements of [0,1]^a [1,0]^(d-a) +
    # arrangements of [0,1]^a1 [1,0]^a2 [1,1]^(d-a1-a2)
    for d in range(2, 8):
        count = 1
        for a in range(1, d // 2 + 1):
            count += math.comb(d, a)
        for a1 in range(1, d - 1):
            for a2 in range(a1, d - a1):
                a3 = d - a1 - a2
                count += math.factorial(d) // (
                    math.factorial(a1) * math.factorial(a2) * math.factorial(a3)
                )
        assert family_size(d) == count


def test_example_family_membership():
    fam = example_family(2)
    members = {m for m, _ in fam}
    assert members == {
        BitMatrix.from_rows([[1], [1]]),
        BitMatrix.from_rows([[0, 1], [1, 0]]),
        BitMatrix.from_rows([[1, 0], [0, 1]]),
    }
    assert all(abs(p - 1 / 3) < 1e-15 for _, p in fam)


def test_example_family_properties():
    for d in range(2, 6):
        fam = example_family(d)
        assert fam.size == family_size(d)
        seen = set()
        total = 0.0
        for matrix, prob in fam:
            assert matrix.rows == d
            assert rank(matrix) == matrix.cols  # full column rank
            assert matrix not in seen
            seen.add(matrix)
            assert abs(prob - 1 / fam.size) < 1e-15
            total += prob
        assert abs(total - 1.0) < 1e-12


def test_example_family_permutation_closure():
    rng = random.Random(5)
    for d in (3, 4, 5):
        fam = example_family(d)
        weight = {m: p for m, p in fam}
        for matrix, prob in fam:
            rows = matrix.to_rows()
            for _ in range(3):
                perm = list(range(d))
                rng.shuffle(perm)
                permuted = BitMatrix.from_rows([rows[i] for i in perm], cols=matrix.cols)
                assert weight.get(permuted) == prob


def test_family_degree_one_and_above_cap():
    assert example_family(1).entries[0][0] == BitMatrix.from_rows([[1]])
    fam = PncModel.example(10).family(11)
    assert fam.size == 1
    matrix, prob = fam.entries[0]
    assert matrix.cols == 0 and prob == 1.0


def test_counted_family_matches_enumeration():
    for d in range(2, 9):
        counted = PncModel.example(d).family(d)
        assert isinstance(counted, StockFamily)
        listed = example_family(d)
        assert counted.size == family_size(d) == listed.size
        assert list(counted) == list(listed)
        # the shapes partition the members: group the listed members by
        # their multiset of rows and compare with the representatives
        by_shape = Counter(tuple(sorted(map(tuple, m.to_rows()))) for m, _ in listed)
        shapes = {tuple(sorted(map(tuple, rep.to_rows()))): count
                  for rep, (_, count) in zip(representatives(counted), counted.shapes, strict=True)}
        assert shapes == dict(by_shape)


def representatives(fam):
    """A stock family's shape representatives, from its column masks."""
    return [BitMatrix(fam.degree, c, m[:c]) for c, m in zip(fam._cols.tolist(), fam._masks.tolist())]


def test_closed_form_tables_equal_the_listed_representatives():
    # each shape's column masks are runs of ones; they must be the masks of
    # the representative built row by row, and the 0/1 table must hold
    # their bits, up to the object masks past 63 rows
    for d in range(2, 91):
        fam = StockFamily(d)
        want = [BitMatrix.from_rows(_shape_rows(d, shape)) for shape, _ in fam.shapes]
        assert representatives(fam) == want, d
        assert fam._masks.dtype == mask_dtype(d)
        bits = (fam._masks[:, None, :] >> np.arange(d)[:, None]) & 1
        assert np.array_equal(fam._bits, bits.astype(np.int64)), d


def test_stock_members_have_full_column_rank():
    for d in range(2, 91):
        fam = StockFamily(d)
        assert all(rank(m) == m.cols for m in representatives(fam)), d
        assert fam.expected_rank == Fraction(sum(m.cols * count for m, (_, count) in
                                                 zip(representatives(fam), fam.shapes)), fam.size)


def listed_gamma_counts(d):
    """The stock family's mean gamma-set size counts, exactly, over every
    listed member with its last row as the target (the family is closed
    under row permutations, so every target row gives the same mean).  A
    known set V solves the target when some nonzero combination of the
    columns, with V's rows cleared, is the target's unit vector."""
    target = 1 << (d - 1)
    counts = [0] * d
    listed = example_family(d)
    for matrix, _ in listed:
        masks = matrix.column_masks()
        for known in range(target):
            cleared = [m & ~known for m in masks]
            combos = {0}
            for m in cleared:
                combos |= {m ^ x for x in combos}
            counts[known.bit_count()] += target in combos
    return [Fraction(n, listed.size) for n in counts]


def test_counted_tables_equal_the_listed_ones_exactly():
    for d in range(2, 9):
        fam = StockFamily(d)
        assert fam.gamma_counts() == listed_gamma_counts(d), d
        listed = example_family(d)
        assert fam.expected_rank == Fraction(sum(rank(m) for m, _ in listed), listed.size)


def test_stock_gamma_coefficients_are_pinned():
    # the Gamma_k coefficients of the stock families at d = 2..90, byte for
    # byte as the Fraction expansion of the enumerated-shape tables gave them
    model = PncModel.example(90)
    coeffs = b"".join(np.array(model.gamma_poly(d - 1).coeffs).tobytes() for d in range(2, 91))
    assert hashlib.sha256(coeffs).hexdigest() == "1f85f6a5162a3351f3da4601764a0fd9feb9f8a622a15859657718420efc8525"


def as_matrices(fam, drawn):
    """A family's `sample` arrays as one BitMatrix per draw."""
    cols, masks = drawn
    return [BitMatrix(fam.degree, c, m[:c]) for c, m in zip(cols.tolist(), masks.tolist())]


def row_multiset(matrix):
    """A matrix up to a permutation of its rows."""
    return tuple(sorted(map(tuple, matrix.to_rows())))


# the member-sampler distribution tests draw from numpy's generator and from
# the stream `sample_frame` uses
SAMPLER_RNGS = pytest.mark.parametrize("make_rng", [np.random.default_rng, Stream], ids=["numpy", "stream"])


@SAMPLER_RNGS
def test_counted_sample_is_uniform(make_rng):
    # fixed seeds; p is about 0.034 at d=3 and 0.93 at d=4 (numpy), 0.27 and 0.25 (stream)
    for d, draws, seed in ((3, 20000, 0), (4, 35000, 1)):
        fam = StockFamily(d)
        rng = make_rng(seed)
        seen = Counter(as_matrices(fam, fam.sample(rng, draws)))
        members = [m for m, _ in example_family(d)]
        assert set(seen) == set(members)
        assert scipy.stats.chisquare([seen[m] for m in members]).pvalue > 0.01


def test_counted_sample_beyond_int64_sizes():
    fam = PncModel.example(50).family(45)
    assert fam.size > 2**63
    (matrix,) = as_matrices(fam, fam.sample(np.random.default_rng(3), 1))
    assert matrix.rows == 45
    assert rank(matrix) == matrix.cols


def test_counted_sample_beyond_int64_masks():
    # 70 rows: the column masks no longer fit in int64
    fam = StockFamily(70)
    drawn = fam.sample(np.random.default_rng(4), 50)
    assert drawn[1].dtype == object
    for matrix in as_matrices(fam, drawn):
        assert matrix.rows == 70
        assert rank(matrix) == matrix.cols
        if matrix.cols == 1:
            assert matrix.column_mask(0) == 2**70 - 1
        else:
            # every row is of type [0,1], [1,0] or [1,1]
            assert matrix.column_mask(0) | matrix.column_mask(1) == 2**70 - 1


@SAMPLER_RNGS
def test_weighted_sample_follows_probabilities(make_rng):
    members = [BitMatrix.from_rows(rows) for rows in ([[1], [1]], [[1, 0], [0, 1]], [[0, 1], [1, 1]])]
    probs = [0.5, 0.3, 0.2]
    fam = WeightedMatrixFamily(2, zip(members, probs))
    draws = 20000
    # a member lands at a uniform row order, so draws are compared up to one
    seen = Counter(map(row_multiset, as_matrices(fam, fam.sample(make_rng(0), draws))))
    assert set(seen) == set(map(row_multiset, members))
    # fixed seed; p is about 0.64 (numpy), 0.16 (stream)
    assert scipy.stats.chisquare([seen[row_multiset(m)] for m in members], [draws * p for p in probs]).pvalue > 0.01


@SAMPLER_RNGS
def test_weighted_sample_places_a_member_at_a_uniform_row_order(make_rng):
    # every distinct arrangement of an asymmetric member is equally likely:
    # six for the first member (three distinct rows), three for the second
    members = [BitMatrix.from_rows(rows) for rows in ([[1, 0], [0, 1], [0, 0]], [[1], [1], [0]])]
    probs = [0.7, 0.3]
    fam = WeightedMatrixFamily(3, zip(members, probs))
    draws = 30000
    seen = Counter(as_matrices(fam, fam.sample(make_rng(2), draws)))
    expected = {}
    for member, prob in zip(members, probs):
        arrangements = {BitMatrix.from_rows(rows) for rows in itertools.permutations(member.to_rows())}
        expected.update((m, draws * prob / len(arrangements)) for m in arrangements)
    assert len(expected) == 9 and set(seen) == set(expected)
    # fixed seed; p is about 0.94 (numpy), 0.30 (stream)
    assert scipy.stats.chisquare([seen[m] for m in expected], list(expected.values())).pvalue > 0.01


def test_example_family_rejects_degree_zero():
    with pytest.raises(ValueError):
        example_family(0)


def test_weighted_family_validation():
    good = BitMatrix.from_rows([[1], [1]])
    with pytest.raises(ValueError):
        WeightedMatrixFamily(2, [(good, 0.5)])  # probs must sum to 1
    rank_deficient = BitMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        WeightedMatrixFamily(2, [(rank_deficient, 1.0)])
    wrong_rows = BitMatrix.from_rows([[1], [1], [1]])
    with pytest.raises(ValueError):
        WeightedMatrixFamily(2, [(wrong_rows, 1.0)])


# --- gamma sets ----------------------------------------------------------------


def test_gamma_set_anchor_four_user_batch():
    h = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1]])
    assert gamma_set(h) == {frozenset({1, 3}), frozenset({2, 3}), frozenset({1, 2, 3})}


def test_gamma_set_anchor_trivial_cases():
    assert gamma_set(BitMatrix.from_rows([[1]])) == {frozenset()}
    assert gamma_set(BitMatrix.identity(2)) == {frozenset(), frozenset({1})}
    assert gamma_set(BitMatrix(3, 0)) == set()


def test_gamma_set_matches_oracle():
    for d in range(2, 5):
        for matrix, _ in example_family(d):
            assert gamma_set(matrix) == oracle_gamma_set(matrix.to_rows())


def test_gamma_set_upward_closed():
    for d in range(2, 6):
        for matrix, _ in example_family(d):
            got = gamma_set(matrix)
            rest = set(range(1, d))
            for subset in got:
                for extra in rest - subset:
                    assert subset | {extra} in got


# --- gamma polynomials ------------------------------------------------------


def test_gamma_poly_degree_one_anchor():
    # enumeration gives (x + 2) / 3 for the three-member two-user family
    model = PncModel.example(10)
    poly = model.gamma_poly(1)
    assert np.allclose(poly.coeffs, (2 / 3, 1 / 3), atol=1e-15)


def test_gamma_poly_degree_two_anchor():
    # frozen from the enumeration oracle: (1 + 14x - 5x^2) / 10.  A one-type
    # target row in a mixed-split member is solvable through its own column
    # or through the sum of both columns; counting only the first route
    # would give (1 + 10x - x^2) / 10.
    model = PncModel.example(10)
    poly = model.gamma_poly(2)
    assert np.allclose(poly.coeffs, (0.1, 1.4, -0.5), atol=1e-14)
    for x in GRID:
        assert abs(oracle_gamma_value(model, 2, x) - poly(x)) < 1e-12


def test_gamma_poly_matches_oracle_enumeration():
    model = PncModel.example(6)
    for k in range(0, 5):
        poly = model.gamma_poly(k)
        for x in (0.0, 0.3, 0.7, 1.0):
            assert abs(poly(x) - oracle_gamma_value(model, k, x)) < 1e-12


def test_gamma_k_enum_agrees_with_table():
    model = PncModel.example(10)
    for k in range(0, 6):
        poly = model.gamma_poly(k)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(gamma_k_enum(model, k, x) - poly(x)) < 1e-12


def test_gamma_k_enum_grid_equals_pointwise():
    model = PncModel.example(6)
    grid = [0.0, 0.1, 0.35, 0.8, 1.0]
    for k in range(0, 5):
        assert gamma_k_enum(model, k, grid) == [gamma_k_enum(model, k, x) for x in grid]
    with pytest.raises(ValueError):
        gamma_k_enum(model, 2, [0.5, 1.5])


def test_stock_gamma_counts_match_representative_enumeration():
    model = PncModel.example(12)
    for d in range(2, 13):
        reference = representative_gamma_counts(d)
        assert StockFamily(d).gamma_counts() == reference
        assert model.gamma_poly(d - 1).coeffs == _counts_to_coeffs(d - 1, reference)


def test_gamma_poly_zero_and_cap():
    model = PncModel.example(4)
    assert model.gamma_poly(0).coeffs == (1.0,)
    assert model.gamma_poly(0)(0.0) == 1.0
    assert model.gamma_poly(4)(0.5) == 0.0  # collision size 5 > cap
    assert model.gamma_poly(9).coeffs == (0.0,)


def test_gamma_poly_monotone_and_bounded():
    model = PncModel.example(10)
    xs = np.arange(0.0, 1.0001, 0.01)
    for k in range(0, 10):
        vals = model.gamma_poly(k)(xs)
        assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)
        assert np.all(np.diff(vals) >= -1e-12)
        assert abs(vals[-1] - 1.0) < 1e-12  # every member solvable once all known


def test_gamma_poly_ndarray_evaluation():
    model = PncModel.example(5)
    xs = np.array([0.0, 0.5, 1.0])
    vals = model.gamma_poly(2)(xs)
    assert vals.shape == (3,)
    assert abs(vals[0] - 0.1) < 1e-15


def test_gamma_values_are_the_polynomials_rows():
    model = PncModel.example(5)
    xs = np.linspace(0.0, 1.0, 7)
    rows = model.gamma_values(xs)
    assert rows.shape == (5, 7)
    for k in range(5):
        assert rows[k].tobytes() == model.gamma_poly(k)(xs).tobytes()
    assert model.gamma_values(0.3) == [model.gamma_poly(k)(0.3) for k in range(5)]


def test_gamma_values_cache_is_bounded_and_read_only():
    model = PncModel.example(6)
    kept = np.linspace(0.0, 1.0, 50)
    rows = model.gamma_values(kept)
    assert model.gamma_values(kept.copy()) is rows  # keyed by the grid's bytes, not its identity
    with pytest.raises(ValueError):
        rows[0, 0] = 0.5
    with pytest.raises(ValueError):
        next(iter(rows))[1] = 0.5
    for n in range(100):
        model.gamma_values(np.linspace(0.0, 1.0, n + 60))
        assert model.gamma_values(kept) is rows  # used between the others, so never the oldest
        assert len(model._gamma_rows) <= GAMMA_CACHE_GRIDS
    assert len(model._gamma_rows) == GAMMA_CACHE_GRIDS
    first = np.linspace(0.0, 1.0, 60)
    assert model.gamma_values(first).tobytes() == np.array([model.gamma_poly(k)(first) for k in range(6)]).tobytes()
    model.gamma_values(0.25)  # scalars are not cached
    assert len(model._gamma_rows) == GAMMA_CACHE_GRIDS
    # the same bytes as another dtype or shape are another grid
    assert model.gamma_values(kept.reshape(5, 10)).shape == (6, 5, 10)


# --- closed form ----------------------------------------------------------------


def test_closed_form_degree_two_matches_enumeration():
    for x in GRID:
        closed = gamma_closed_form(2, x)
        assert abs(closed - (2 + x) / 3) < 1e-12
        assert abs(closed - gamma_k_enum(PncModel.example(3), 1, x)) < 1e-12


def test_closed_form_degree_three_values():
    # the compact form reproduces (1 + 14x - 5x^2)/10 at uniform weights,
    # the same polynomial test_gamma_poly_degree_two_anchor pins by enumeration
    for x in GRID:
        val = gamma_closed_form(3, x)
        assert abs(val - (1 + 14 * x - 5 * x * x) / 10) < 1e-12


def test_closed_form_undercounts_mixed_split_targets():
    # at d=3 the [0,1]/[1,0]-typed targets of the six mixed-split members
    # resolve through their own column or through the sum of both columns
    # (probability 2x - x^2, not x).  Counting only the single column gives
    # (1 + 10x - x^2)/10; the column-sum route adds (4x - 4x^2)/10 on the
    # open interval, and the closed form must match enumeration everywhere.
    model = PncModel.example(3)
    for x in (0.0, 1.0):
        closed = gamma_closed_form(3, x)
        assert abs(closed - gamma_k_enum(model, 2, x)) < 1e-12
    for x in (0.25, 0.5, 0.75):
        closed = gamma_closed_form(3, x)
        enum = gamma_k_enum(model, 2, x)
        single_column = (1 + 10 * x - x * x) / 10
        expected_gap = (4 * x - 4 * x * x) / 10
        assert closed > single_column
        assert abs((closed - single_column) - expected_gap) < 1e-12
        assert abs(closed - enum) < 1e-12


def test_closed_form_reaches_one_at_full_knowledge():
    for d in range(2, 7):
        assert abs(gamma_closed_form(d, 1.0) - 1.0) < 1e-12


def test_closed_form_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        gamma_closed_form(1, 0.5)


def two_member_model() -> PncModel:
    return PncModel.from_dict({
        "max_decodable": 2,
        "families": {
            "1": [{"matrix": [[1]], "prob": 1.0}],
            "2": [{"matrix": [[1, 0], [0, 1]], "prob": 0.5}, {"matrix": [[1], [1]], "prob": 0.5}],
        },
    })


@pytest.mark.parametrize("model", [PncModel.example(4), two_member_model()], ids=["stock", "custom"])
def test_gamma_poly_above_the_cap_skips_the_subset_walk(model, monkeypatch):
    # an empty transfer matrix unlocks nothing: its 2^(d-1) subsets are
    # never tried, so size 40 costs no more than size 5
    def no_walk(*args):
        raise AssertionError("gamma_set walked the subsets of an empty matrix")

    monkeypatch.setattr("ncsa.pnc.select_rows", no_walk)
    assert model.gamma_poly(39).coeffs == (0.0,)
    assert model.gamma_poly(model.max_decodable).coeffs == (0.0,)
    assert gamma_set(BitMatrix(40, 0)) == set()


@pytest.mark.parametrize("model", [PncModel.example(4), two_member_model()], ids=["stock", "custom"])
def test_family_is_built_once_at_size_one_and_above_the_cap(model):
    cap = model.max_decodable
    assert model.family(1) is model.family(1)
    assert model.family(cap + 1) is model.family(cap + 1)
    assert [m for m, _ in model.family(1)] == [BitMatrix.from_rows([[1]])]
    assert model.gamma_poly(0).coeffs == (1.0,)
    assert model.expected_rank(1) == 1.0
    assert model.expected_rank(cap + 1) == 0.0


# --- model ----------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        PncModel.example(1)
    with pytest.raises(ValueError):
        PncModel.example(0)


def test_model_family_caching_and_cap():
    model = PncModel.example(3)
    assert model.family(2) is model.family(2)
    assert model.family(4).entries[0][0].cols == 0
    assert model.max_decodable == 3
    assert model.is_example


def test_model_from_dict_round_trip():
    data = {
        "max_decodable": 2,
        "families": {
            "1": [{"matrix": [[1]], "prob": 1.0}],
            "2": [
                {"matrix": [[1], [1]], "prob": 0.25},
                {"matrix": [[1, 0], [0, 1]], "prob": 0.75},
            ],
        },
    }
    model = PncModel.from_dict(data)
    assert not model.is_example
    assert model.max_decodable == 2
    fam = model.family(2)
    assert fam.size == 2
    # gamma table: 0.25 * x + 0.75 * 1
    poly = model.gamma_poly(1)
    assert abs(poly(0.0) - 0.75) < 1e-12
    assert abs(poly(1.0) - 1.0) < 1e-12
    assert model.family(3).entries[0][0].cols == 0
    assert model.gamma_poly(2)(0.7) == 0.0


def test_model_from_dict_validation():
    base = {
        "max_decodable": 2,
        "families": {"1": [{"matrix": [[1]], "prob": 1.0}]},
    }
    with pytest.raises(ValueError):
        PncModel.from_dict(base)  # family for 2 missing
    bad_first = {
        "max_decodable": 2,
        "families": {
            "1": [{"matrix": [[1], [1]], "prob": 1.0}],
            "2": [{"matrix": [[1], [1]], "prob": 1.0}],
        },
    }
    with pytest.raises(ValueError):
        PncModel.from_dict(bad_first)


@st.composite
def model_dicts(draw):
    """A valid custom model file: a family for every size 1..cap, each
    member of full column rank, weights normalised to sum to 1."""
    cap = draw(st.integers(1, 4))
    families = {"1": [{"matrix": [[1]], "prob": 1.0}]}
    for d in range(2, cap + 1):
        matrices = []
        for _ in range(draw(st.integers(1, 4))):
            cols = []
            for mask in draw(st.lists(st.integers(1, 2**d - 1), max_size=d)):
                if rank(BitMatrix(d, len(cols) + 1, cols + [mask])) == len(cols) + 1:
                    cols.append(mask)
            matrices.append(BitMatrix(d, len(cols), cols).to_rows())
        weights = draw(st.lists(st.integers(1, 9), min_size=len(matrices), max_size=len(matrices)))
        families[str(d)] = [{"matrix": m, "prob": w / sum(weights)} for m, w in zip(matrices, weights)]
    return {"max_decodable": cap, "families": families}


@settings(max_examples=100, deadline=None, database=None)
@given(model_dicts(), st.integers(0, 2**32 - 1))
def test_model_from_dict_property(data, seed):
    model = PncModel.from_dict(json.loads(json.dumps(data)))
    assert model.max_decodable == data["max_decodable"] and not model.is_example
    rng = np.random.default_rng(seed)
    for key, entries in data["families"].items():
        d = int(key)
        listed = [
            (BitMatrix.from_rows(e["matrix"]) if e["matrix"][0] else BitMatrix(d, 0), e["prob"]) for e in entries
        ]
        fam = model.family(d)
        assert list(fam) == listed
        assert fam.expected_rank == sum(prob * rank(m) for m, prob in listed)
        drawn = as_matrices(fam, fam.sample(rng, 64))
        assert set(map(row_multiset, drawn)) <= {row_multiset(m) for m, _ in listed}
    above = model.family(model.max_decodable + 1)
    assert [m.cols for m, _ in above] == [0]


@settings(max_examples=100, deadline=None, database=None)
@given(
    model_dicts(),
    st.sampled_from(
        ["missing size", "missing key", "wrong JSON type", "ragged", "row count", "probabilities", "rank"]
    ),
    st.data(),
)
def test_model_from_dict_rejects_malformed_property(data, fault, pick):
    d = pick.draw(st.integers(1, data["max_decodable"]))
    entries = data["families"][str(d)]
    if fault == "missing size":
        del data["families"][str(d)]
    elif fault == "missing key":
        key = pick.draw(st.sampled_from(["max_decodable", "families", "matrix", "prob"]))
        del (entries[0] if key in ("matrix", "prob") else data)[key]
    elif fault == "wrong JSON type":
        where = pick.draw(st.sampled_from(["cap", "families", "member", "matrix"]))
        if where == "cap":
            data["max_decodable"] = str(data["max_decodable"])
        elif where == "families":
            data["families"] = list(data["families"].values())
        elif where == "member":
            entries[0] = entries[0]["matrix"]  # a list where an object belongs
        else:
            entries[0]["matrix"] = 1
    elif fault == "ragged":
        # an empty first row must not hide the non-empty rows after it
        entries[0]["matrix"] = [[]] + [[1]] * max(d - 1, 1)
    elif fault == "row count":
        entries[0]["matrix"] = [[1]] + [[0]] * d
    elif fault == "probabilities":
        scale = pick.draw(st.sampled_from([0.5, 1.5]))
        for entry in entries:
            entry["prob"] *= scale
    else:
        # repeat the first column, or add a zero one to an empty member
        entries[0]["matrix"] = [row + [row[0] if row else 0] for row in entries[0]["matrix"]]
    with pytest.raises(ValueError):
        PncModel.from_dict(data)


def test_expected_rank_routes_agree():
    # the counted mean rank equals the exact rank sum over every listed member
    model = PncModel.example(9)
    assert model.expected_rank(1) == 1.0
    for d in range(2, 10):
        listed = example_family(d)
        enumerated = Fraction(sum(rank(m) for m, _ in listed), listed.size)
        assert model.family(d).expected_rank == enumerated
        assert model.expected_rank(d) == float(enumerated)
    assert model.expected_rank(10) == 0.0


def test_expected_rank_closed_route_values():
    # one all-ones member of rank 1, the rest of rank 2: (1 + 2(n-1)) / n
    model = PncModel.example(3)
    assert model.expected_rank(1) == 1.0
    assert model.family(2).expected_rank == Fraction(5, 3)
    assert model.family(3).expected_rank == Fraction(19, 10)
    assert model.expected_rank(3) == 19 / 10


def test_gamma_counts_average_an_asymmetric_member_over_its_target_rows():
    # [[1],[0]] decodes only its first row; a frame puts a user at either row
    # of a two-user slot, so the slot releases it with probability 1/2 whatever
    # the other user's state
    family = PncModel.from_dict({
        "max_decodable": 2,
        "families": {"1": [{"matrix": [[1]], "prob": 1.0}], "2": [{"matrix": [[1], [0]], "prob": 1.0}]},
    }).family(2)
    assert family.gamma_counts() == [0.5, 0.5]


def test_gamma_counts_average_every_target_row_of_random_members():
    # against the brute-force gamma set of each member with each row moved
    # last, averaged over the rows
    rng = random.Random(5)
    for d in range(2, 7):
        members = []
        while len(members) < 4:
            cols = rng.randint(1, min(3, d))
            matrix = BitMatrix(d, cols, [rng.randrange(1, 1 << d) for _ in range(cols)])
            if rank(matrix) == cols:
                members.append(matrix)
        want = [0.0] * d
        for matrix in members:
            rows = matrix.to_rows()
            for t in range(d):
                for subset in oracle_gamma_set(rows[:t] + rows[t + 1:] + [rows[t]]):
                    want[len(subset)] += 0.25 / d
        family = WeightedMatrixFamily(d, [(matrix, 0.25) for matrix in members])
        assert family.gamma_counts() == pytest.approx(want, abs=1e-12)


def simulate_gap(tmp_path, families, dist):
    """The recursion's prediction and the batched-BP fraction of a 20k-user
    frame at rate 0.5 under a custom model (seed 0)."""
    model = {"max_decodable": len(families) + 1, "families": {"1": [{"matrix": [[1]], "prob": 1.0}], **families}}
    (tmp_path / "model.json").write_text(json.dumps(model))
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--users", "20000", "--rate", "0.5", "--dist", dist, "--model", str(tmp_path / "model.json"),
            "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    meta = dict(line[2:].strip().split("=", 1) for line in out.read_text().splitlines() if line.startswith("# "))
    return float(meta["predicted_fraction"]), float(meta["mean_fraction_batched"])


def test_asymmetric_custom_family_predicts_its_frames(tmp_path):
    predicted, measured = simulate_gap(tmp_path, {"2": [{"matrix": [[1], [0]], "prob": 1.0}]}, "2:1")
    # a user's edge resolves with probability e^-1 (alone) + e^-1 / 2 (one other)
    assert predicted == pytest.approx(1 - (1 - 1.5 / math.e) ** 2, abs=1e-9)
    # a slot places the member at a uniform row order, so a user's rows are
    # independent across its slots, as the recursion assumes
    assert measured == pytest.approx(0.802)
    assert abs(predicted - measured) < 0.01


@pytest.mark.parametrize("dist", ["2:1", "3:1"])
def test_mixed_width_custom_family_predicts_its_frames(tmp_path, dist):
    # one- and two-column members, some with a row that no column holds
    families = {
        "2": [{"matrix": [[1], [0]], "prob": 0.6}, {"matrix": [[1, 0], [1, 1]], "prob": 0.4}],
        "3": [{"matrix": [[1, 0], [0, 1], [0, 0]], "prob": 0.7}, {"matrix": [[1], [1], [0]], "prob": 0.3}],
    }
    predicted, measured = simulate_gap(tmp_path, families, dist)
    assert abs(predicted - measured) < 0.01
