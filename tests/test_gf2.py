import itertools
import random

import pytest

from ncsa.gf2 import (
    BitMatrix,
    _reduce_against,
    combine,
    in_colspan,
    rank,
    rcef,
    select_rows,
    span_basis,
    units_in_span,
)


def brute_rank(rows: list[list[int]]) -> int:
    """Row-reduction rank over GF(2), kept independent of the bitmask code."""
    mat = [row[:] for row in rows]
    if not mat:
        return 0
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def brute_in_span(matrix: BitMatrix, target: int) -> bool:
    cols = [matrix.column_mask(c) for c in range(matrix.cols)]
    for picks in itertools.product((0, 1), repeat=len(cols)):
        acc = 0
        for take, col in zip(picks, cols):
            if take:
                acc ^= col
        if acc == target:
            return True
    return False


def random_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    return BitMatrix.from_rows(
        [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def xor(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length byte strings."""
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def reduce_matrix(m: BitMatrix) -> tuple[BitMatrix, int]:
    """`rcef` without its combinations: (reduced, field ops)."""
    reduced, _, ops = rcef(m)
    return reduced, ops


def reduce_payloads(m: BitMatrix, payloads: list[bytes]) -> tuple[BitMatrix, list[bytes], int]:
    """`rcef` with one payload per column carried through its combinations."""
    reduced, combos, ops = rcef(m)
    return reduced, combine(payloads, BitMatrix(m.cols, m.cols, combos)), ops


def test_bitmatrix_round_trip_and_identity():
    rows = [[1, 0, 1], [0, 1, 1]]
    m = BitMatrix.from_rows(rows)
    assert m.to_rows() == rows
    assert (m.rows, m.cols) == (2, 3)
    assert m.get(0, 2) == 1 and m.get(1, 0) == 0
    eye = BitMatrix.identity(3)
    assert eye.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert BitMatrix.zeros(2, 2).to_rows() == [[0, 0], [0, 0]]


def test_bitmatrix_empty_is_valid():
    m = BitMatrix(3, 0)
    assert m.cols == 0 and m.rows == 3
    assert m.to_rows() == [[], [], []]
    assert rank(m) == 0


def test_bitmatrix_eq_hash():
    a = BitMatrix.from_rows([[1, 0], [0, 1]])
    b = BitMatrix.identity(2)
    assert a == b and hash(a) == hash(b)
    assert a != BitMatrix.from_rows([[1, 1], [0, 1]])


def test_bitmatrix_bounds():
    m = BitMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(IndexError):
        m.get(2, 0)
    with pytest.raises(IndexError):
        m.get(0, 2)


def test_rank_examples():
    assert rank(BitMatrix.identity(2)) == 2
    eq1 = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1]])
    assert rank(eq1) == 2
    assert rank(BitMatrix.from_rows([[1], [1], [1]])) == 1


def test_rank_matches_row_reduction_oracle():
    rng = random.Random(20824)
    for _ in range(300):
        r = rng.randint(0, 8)
        c = rng.randint(0, 8)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        m = BitMatrix.from_rows(rows, cols=c)
        assert rank(m) == brute_rank(rows)


def test_span_basis_is_keyed_by_lowest_bit_and_spans_its_input():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.randint(1, 8)
        c = rng.randint(0, 8)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        masks = BitMatrix.from_rows(rows, cols=c).column_masks()
        basis = span_basis(masks)
        assert len(basis) == brute_rank(rows)
        assert all(key == vec & -vec for key, vec in basis.items())
        assert all(_reduce_against(basis, m) == 0 for m in masks)


def test_units_in_span_matches_reduction():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 12)
        masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(0, n + 2))]
        basis = span_basis(masks)
        assert units_in_span(basis, n) == [i for i in range(n) if _reduce_against(basis, 1 << i) == 0]
    assert units_in_span({}, 3) == []
    assert units_in_span(span_basis([0b011, 0b110, 0b100]), 3) == [0, 1, 2]


def test_rank_invariant_under_permutations_and_rcef():
    rng = random.Random(7)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        base = rank(m)
        perm = list(range(m.rows))
        rng.shuffle(perm)
        permuted = BitMatrix.from_rows([m.to_rows()[i] for i in perm], cols=m.cols)
        assert rank(permuted) == base
        reduced, _ = reduce_matrix(m)
        assert rank(reduced) == base


def test_rcef_worked_example():
    # one swap, then one column add: 1 + 2 field operations
    m = BitMatrix.from_rows([[0, 1], [1, 1], [1, 1]])
    reduced, combos, ops = rcef(m)
    assert reduced.to_rows() == [[1, 0], [0, 1], [0, 1]]
    assert combos == [0b11, 0b01]
    assert ops == 3
    assert reduce_payloads(m, [b"a", b"b"])[1] == [xor(b"a", b"b"), b"a"]


def test_rcef_identity_and_zero():
    eye = BitMatrix.identity(4)
    assert rcef(eye) == (eye, [0b1, 0b10, 0b100, 0b1000], 0)
    z = BitMatrix.zeros(3, 2)
    assert rcef(z) == (z, [0b1, 0b10], 0)
    assert rcef(BitMatrix(3, 0)) == (BitMatrix(3, 0), [], 0)


def test_rcef_shape():
    # pivot rows strictly increase left to right and carry no other 1s
    rng = random.Random(99)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        reduced, _ = reduce_matrix(m)
        pivots = []
        seen_zero = False
        for c in range(reduced.cols):
            col = [reduced.get(r, c) for r in range(reduced.rows)]
            if 1 not in col:
                seen_zero = True
                continue
            assert not seen_zero, "pivot column after a zero column"
            p = col.index(1)
            pivots.append(p)
            row = [reduced.get(p, cc) for cc in range(reduced.cols)]
            assert sum(row) == 1
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


def test_rcef_idempotent():
    rng = random.Random(3)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 16), rng.randint(1, 16))
        reduced, _ = reduce_matrix(m)
        assert reduce_matrix(reduced) == (reduced, 0)


def test_rcef_payloads_match_reduced_combination():
    # reduced column j is the XOR of the original columns in combos[j], and a
    # right-hand side u = combine(v, M) reduces to combine(v, Mtilde)
    rng = random.Random(41)
    for _ in range(300):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(0, 8)
        m = random_matrix(rng, nrows, ncols)
        v = [rng.randbytes(5) for _ in range(nrows)]
        reduced, combos, _ = rcef(m)
        assert len(combos) == ncols
        for j, combo in enumerate(combos):
            acc = 0
            for i in range(ncols):
                if combo >> i & 1:
                    acc ^= m.column_mask(i)
            assert acc == reduced.column_mask(j)
        assert combine(combine(v, m), BitMatrix(ncols, ncols, combos)) == combine(v, reduced)


def test_rcef_single_add():
    # no swap, one column add: combos[1] gains column 0, two field operations
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    assert rcef(m) == (BitMatrix.identity(2), [0b01, 0b11], 2)
    assert reduce_payloads(m, [b"a", b"b"])[1] == [b"a", xor(b"a", b"b")]


def test_rcef_recovers_substituted_packet():
    # one slot, four users, first packet already known: after substitution and
    # reduction the unit column holds v2 = u2 xor u1 xor v1
    v = [bytes([i * 17]) * 4 for i in range(1, 5)]
    h = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1]])
    u1, u2 = combine(v, h)
    sub_u1 = xor(u1, v[0])  # remove the known packet from column 1
    reduced, payloads, _ = reduce_payloads(select_rows(h, [1, 2, 3]), [sub_u1, u2])
    assert reduced.to_rows() == [[1, 0], [0, 1], [0, 1]]
    assert payloads[0] == v[1]
    assert payloads[0] == xor(xor(u2, u1), v[0])


def test_in_colspan_examples():
    m = BitMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
    assert in_colspan(m, 0b100)
    ones = BitMatrix.from_rows([[1], [1], [1]])
    assert not in_colspan(ones, 0b100)
    eye = BitMatrix.identity(4)
    for i in range(4):
        assert in_colspan(eye, 1 << i)


def test_in_colspan_dimension_mismatch():
    m = BitMatrix.identity(3)
    with pytest.raises(ValueError):
        in_colspan(m, 0b1000)
    with pytest.raises(ValueError):
        in_colspan(m, -1)


def test_in_colspan_matches_brute_force():
    rng = random.Random(13)
    for _ in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(0, 12)
        m = random_matrix(rng, nrows, ncols)
        vec = sum(rng.randint(0, 1) << r for r in range(nrows))
        assert in_colspan(m, vec) == brute_in_span(m, vec)


def test_select_rows():
    eq1 = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1], [1, 1]])
    assert select_rows(eq1, [1, 2, 3]).to_rows() == [[0, 1], [1, 1], [1, 1]]
    assert select_rows(eq1, range(4)) == eq1
    empty = select_rows(eq1, [])
    assert (empty.rows, empty.cols) == (0, 2)
    with pytest.raises(IndexError):
        select_rows(eq1, [4])


def test_combine():
    v = [b"\x01", b"\x02", b"\x04"]
    m = BitMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    assert combine(v, m) == [b"\x03", b"\x06"]
    assert combine(v, BitMatrix(3, 0)) == []


def test_combine_matches_xor_fold():
    rng = random.Random(11)
    for _ in range(300):
        rows, cols, length = rng.randint(1, 8), rng.randint(0, 4), rng.choice([0, 1, 2, 7, 32])
        m = random_matrix(rng, rows, cols)
        v = [bytes(rng.getrandbits(8) for _ in range(length)) for _ in range(rows)]
        expected = []
        for j in range(cols):
            acc = bytes(length)
            for r in range(rows):
                if m.get(r, j):
                    acc = xor(acc, v[r])
            expected.append(acc)
        assert combine(v, m) == expected
    with pytest.raises(ValueError):
        combine([b"\x01", b"\x02\x03"], BitMatrix.from_rows([[1], [0]]))
