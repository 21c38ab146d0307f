"""Physical-layer models: which packet combinations a slot yields, and when.

A model assigns to every collision size d a weighted family of transfer
matrices.  A transfer matrix has one row per colliding user and one column
per decoded combination; the receiver of a degree-d slot observes the
products (payload row-vector) x (matrix).  Size 1 always yields the packet
itself; above the model's cap nothing is decoded and the family degenerates
to the empty matrix.  `PncModel.family` is the one place that picks the
family for a size.

The stock model captures a receiver that resolves one or two XOR
combinations out of a collision: either the XOR of everything (single
all-ones column), or two combinations whose rows split the users into
[1,0] / [0,1] / [1,1] patterns.  Every distinct row arrangement is a member,
all equally likely.  The family grows about 3^d, so `StockFamily` holds it
as its O(d^2) member shapes (row-type counts) with their arrangement counts,
in closed form: a shape's column masks are runs of ones, every two-column
member has rank 2, and the solvability counts add one binomial row per
route size.  `example_family` lists every member and is kept as the
enumerated reference the counted tables are tested against.

Both family types share one sampler, which draws a block of members as
arrays, not matrices: the column counts and the column masks padded with
zeros (`gf2.mask_dtype`).  Each member (a stock shape) is drawn by its
weight and placed at a uniform row arrangement, so a user sits at an
independent, uniform row of each of its slots, as the recursion assumes.

`gamma_set` is the solvability footprint a decoder cares about: which
subsets of the first d-1 users, once known, let the last user's packet be
solved out of the slot.  Each family owns its two analysis tables: the mean
rank (`expected_rank`) and the gamma-set size counts (`gamma_counts`), from
which the model builds and caches the degree-(k) polynomials that drive the
asymptotic recursion.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from math import comb, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .gf2 import BitMatrix, in_colspan, mask_dtype, rank, select_rows, span_basis, units_in_span

_T10 = (1, 0)
_T01 = (0, 1)
_T11 = (1, 1)


def _multinomial(n: int, parts: Sequence[int]) -> int:
    total = 0
    out = 1
    for p in parts:
        total += p
        out *= comb(n - (total - p), p)
    if total != n:
        raise ValueError("parts must sum to n")
    return out


def _distinct_permutations(items: Sequence) -> Iterator[tuple]:
    """All distinct orderings of a multiset, in lexicographic order."""
    pool = sorted(set(items))
    counts = {v: 0 for v in pool}
    for it in items:
        counts[it] += 1
    n = len(items)
    slot: list = [None] * n

    def rec(pos: int) -> Iterator[tuple]:
        if pos == n:
            yield tuple(slot)
            return
        for v in pool:
            if counts[v]:
                counts[v] -= 1
                slot[pos] = v
                yield from rec(pos + 1)
                counts[v] += 1

    yield from rec(0)


def _split_specs(d: int) -> list[tuple[int, int, int]]:
    """(count of [0,1] rows, count of [1,0] rows, count of [1,1] rows) for
    every two-column member shape at collision size d."""
    specs = [(a, d - a, 0) for a in range(1, d // 2 + 1)]
    for a1 in range(1, d - 1):
        for a2 in range(a1, d - a1):
            specs.append((a1, a2, d - a1 - a2))
    return specs


def _stock_shapes(d: int) -> Iterator[tuple[tuple[int, int, int] | None, int]]:
    """(shape, member count) for every stock member shape at collision size
    d >= 2.  A shape is the row-type counts (a1, a2, a3) of a two-column
    member (see `_split_specs`); None is the single all-ones column."""
    yield None, 1
    for spec in _split_specs(d):
        yield spec, _multinomial(d, spec)


def _shape_rows(d: int, shape: tuple[int, int, int] | None) -> list[tuple[int, ...]]:
    """The rows of a shape's representative, grouped by type."""
    if shape is None:
        return [(1,)] * d
    a1, a2, a3 = shape
    return [_T01] * a1 + [_T10] * a2 + [_T11] * a3


def _target_routes(d: int) -> Iterator[tuple[tuple[int, int, int] | None, tuple[int, ...], int, tuple[int, ...]]]:
    """(shape, target type, arrangements, route sizes) for every stock member
    shape at collision size d >= 2 and every row type it contains, shape by
    shape in `_stock_shapes` order.

    `arrangements` counts the members of the shape whose last row (the
    target) has that type; summed over the types it is the shape's member
    count.  A route is an exposed combination containing the target row that
    solves it once every other row in it is known; its size is the number of
    those other rows.  The all-ones column is one route through all d-1
    others.  In a pure split the target's own column is its only useful
    route: the column sum contains every row.  In a mixed split (a1 rows
    [0,1], a2 rows [1,0], a3 rows [1,1]) each target has two routes among
    column 1, column 2 and their sum, in which the [1,1] rows cancel: a
    [0,1] target is in column 2 (the other [0,1] rows and the [1,1] rows)
    and in the sum (the other [0,1] rows and the [1,0] rows), a [1,0] target
    likewise, and a [1,1] target is in both columns.  The two routes of one
    target together contain every other row.
    """
    k = d - 1
    yield None, (1,), 1, (k,)
    for a1, a2, a3 in _split_specs(d):
        shape = (a1, a2, a3)
        if a3 == 0:
            yield shape, _T01, comb(k, a1 - 1), (a1 - 1,)
            yield shape, _T10, comb(k, a2 - 1), (a2 - 1,)
        else:
            yield shape, _T01, _multinomial(k, [a1 - 1, a2, a3]), (a1 - 1 + a3, a1 - 1 + a2)
            yield shape, _T10, _multinomial(k, [a1, a2 - 1, a3]), (a2 - 1 + a3, a2 - 1 + a1)
            yield shape, _T11, _multinomial(k, [a1, a2, a3 - 1]), (a3 - 1 + a1, a3 - 1 + a2)


def family_size(d: int) -> int:
    """Number of members of the stock family at collision size d (d >= 2)."""
    if d < 2:
        raise ValueError("collision size must be at least 2")
    return sum(count for _, count in _stock_shapes(d))


class _MemberSampler:
    """The member sampler both family types share, over four tables with one
    entry per member (per shape representative in a stock family): the
    cumulative weights `_cum` (the last exactly 1), the column counts
    `_cols`, the column masks `_masks` padded with zeros to the widest
    member, and the member x row x column 0/1 entries `_bits` that a row
    arrangement moves."""

    def sample(self, rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        """`count` independent members, each drawn by its weight and placed at
        a uniform arrangement of its rows (member row r lands in row pos[r]
        for a uniform permutation pos), as their column counts and their
        column masks padded with zeros (a ``(count, width)`` array).  A
        member's arranged mask of column w is the sum over its rows r of
        ``_bits[r, w] << pos[r]``: the row vector of the ``1 << pos`` values
        times its row x column entries, one batched `np.matmul` for the
        block, which reduces over the contiguous row axis and also runs on
        Python-int (``object``) masks.  With one row or no columns there is
        nothing to arrange or draw.  `rng` needs only ``random(size)``:
        `frames.Stream` gives it, and so does numpy's `Generator`."""
        picks = np.searchsorted(self._cum, rng.random(count))
        if self.degree == 1 or not self._masks.shape[1]:
            return self._cols[picks], np.take(self._masks, picks, axis=0)
        pos = np.argsort(rng.random((count, self.degree)), axis=1)
        ones = np.ones((count, 1, self.degree), dtype=mask_dtype(self.degree))
        masks = np.matmul(np.left_shift(ones, pos[:, None, :]), np.take(self._bits, picks, axis=0))
        return self._cols[picks], masks[:, 0, :]


class WeightedMatrixFamily(_MemberSampler):
    """A probability distribution over transfer matrices of one collision size."""

    def __init__(self, degree: int, entries: Iterable[tuple[BitMatrix, float]]):
        entries = tuple(entries)
        if degree < 1:
            raise ValueError("degree must be positive")
        if not entries:
            raise ValueError("family must not be empty")
        total = 0.0
        for matrix, prob in entries:
            if matrix.rows != degree:
                raise ValueError(f"member has {matrix.rows} rows, expected {degree}")
            if prob < 0:
                raise ValueError("negative probability")
            if matrix.cols and rank(matrix) != matrix.cols:
                raise ValueError("transfer matrices must have full column rank")
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.degree = degree
        self.entries = entries
        self.size = len(entries)
        # mean decoded-combination count: every member's rank is its column count
        self.expected_rank = sum(prob * matrix.cols for matrix, prob in entries)
        self._cum = np.fromiter(accumulate(p for _, p in entries), dtype=float, count=self.size)
        self._cum[-1] = 1.0
        self._cols = np.array([m.cols for m, _ in entries], dtype=np.int64)
        self._masks = np.zeros((self.size, int(self._cols.max())), dtype=mask_dtype(degree))
        for i, (m, _) in enumerate(entries):
            self._masks[i, :m.cols] = m.column_masks()
        self._bits = ((self._masks[:, None, :] >> np.arange(degree)[:, None]) & 1).astype(np.int64)

    def gamma_counts(self) -> list[float]:
        """counts[j] = mean number of size-j subsets in a member's gamma set,
        averaged over its d rows as the target: a frame places a user at a
        uniform row of its slot.  One walk over each member's known-row
        subsets V builds one span basis of its columns with the rows of V
        cleared and counts the rows whose unit vectors it spans, all outside
        V: each is a target that V unlocks.  The integer sizes are summed
        before dividing by d, so a member whose every row gives the same
        sizes counts as with the last row alone."""
        d = self.degree
        rows = (1 << d) - 1
        counts = [0.0] * d
        for matrix, prob in self.entries:
            if not matrix.cols:  # unlocks nothing, whatever the target
                continue
            sizes = [0] * d
            for known in range(rows):  # every V that leaves a target
                basis = span_basis(m & ~known for m in matrix.column_masks())
                sizes[known.bit_count()] += len(units_in_span(basis, d))
            for j, c in enumerate(sizes):
                counts[j] += prob * (c / d)
        return counts

    def __iter__(self) -> Iterator[tuple[BitMatrix, float]]:
        return iter(self.entries)


class StockFamily(_MemberSampler):
    """The stock family at collision size d >= 2, counted per member shape.

    `shapes` pairs each shape, the row-type counts (a1, a2, a3) of a
    two-column member or None for the all-ones column, with its member
    count; no member is built until one is sampled.  The sampler's tables
    hold the representative whose rows are grouped by type (see
    `_shape_rows`), whose columns are runs of ones: column 1 the [1,0] and
    [1,1] rows, column 2 the [0,1] and [1,1] rows.  Both are nonzero and
    distinct, so every two-column member has full column rank 2 and the
    mean rank is exact.  Iterating lists every member through
    `example_family`.
    """

    def __init__(self, degree: int):
        if degree < 2:
            raise ValueError("the stock family needs a collision size of at least 2")
        d = degree
        self.degree = d
        self.shapes = tuple(_stock_shapes(d))
        counts = [count for _, count in self.shapes]
        self.size = sum(counts)
        # the all-ones member has rank 1, every other rank 2
        self.expected_rank = Fraction(2 * self.size - 1, self.size)
        # each cumulative shape probability is one correctly rounded integer
        # quotient: the size outgrows int64 above d = 40
        self._cum = np.array([c / self.size for c in accumulate(counts)])
        self._cum[-1] = 1.0
        self._cols = np.full(len(counts), 2, dtype=np.int64)
        self._cols[0] = 1
        a1, a2, a3 = np.array([shape for shape, _ in self.shapes[1:]], dtype=np.int64).T
        one = np.ones(len(a1), dtype=mask_dtype(d))
        self._masks = np.zeros((len(counts), 2), dtype=mask_dtype(d))
        self._masks[0, 0] = (1 << d) - 1
        self._masks[1:, 0] = ((one << (a2 + a3)) - one) << a1
        self._masks[1:, 1] = ((one << a1) - one) | (((one << a3) - one) << (a1 + a2))
        row = np.arange(d)
        self._bits = np.zeros((len(counts), d, 2), dtype=np.int64)
        self._bits[0, :, 0] = 1
        self._bits[1:, :, 0] = row >= a1[:, None]
        self._bits[1:, :, 1] = (row < a1[:, None]) | (row >= (a1 + a2)[:, None])

    def gamma_counts(self) -> list[Fraction]:
        """counts[j] = mean number of size-j subsets in a member's gamma set,
        counted per (shape, target type) from the route sizes.

        A target whose only route runs through the r other rows of set A is
        solved by the C(k-r, j-r) size-j subsets of the k = d-1 others that
        contain A.  With two routes A and B whose union is all k others, the
        subsets containing A or B number C(k-|A|, j-|A|) + C(k-|B|, j-|B|) - [j = k].
        So the arrangements are summed per route size r, each sum adds one
        row C(k-r, .) from j = r on, and the two-route targets' arrangements
        come off at j = k.
        """
        d = self.degree
        k = d - 1
        by_size = [0] * d
        overlap = 0
        for _, _, arrangements, routes in _target_routes(d):
            for r in routes:
                by_size[r] += arrangements
            overlap += (len(routes) - 1) * arrangements
        weighted = [0] * d
        for r, total in enumerate(by_size):
            if total:
                for i in range(k - r + 1):
                    weighted[r + i] += total * comb(k - r, i)
        weighted[k] -= overlap
        return [Fraction(w, self.size) for w in weighted]

    def __iter__(self) -> Iterator[tuple[BitMatrix, float]]:
        return iter(example_family(self.degree))


# collision size 1: the packet itself
_SINGLE = WeightedMatrixFamily(1, [(BitMatrix.from_rows([[1]]), 1.0)])


def _empty_family(degree: int) -> WeightedMatrixFamily:
    return WeightedMatrixFamily(degree, [(BitMatrix(degree, 0), 1.0)])


def example_family(d: int) -> WeightedMatrixFamily:
    """The stock family at collision size d with every member listed.

    All members are equally likely; size 1 gives the packet itself.  The
    members number about 3^d: the model counts them per shape
    (`StockFamily`), and this listing is the reference the counted routes
    are tested against.
    """
    if d < 1:
        raise ValueError("collision size must be positive")
    if d == 1:
        return _SINGLE
    members = [
        BitMatrix.from_rows(arrangement)
        for shape, _ in _stock_shapes(d)
        for arrangement in _distinct_permutations(_shape_rows(d, shape))
    ]
    prob = 1.0 / len(members)
    return WeightedMatrixFamily(d, [(m, prob) for m in members])


def gamma_set(matrix: BitMatrix) -> set[frozenset[int]]:
    """All subsets of rows 1..d-1 (1-based) that unlock the last row's packet.

    A subset V qualifies when, with the packets of rows in V substituted
    out, the value of the last row's packet is determined by the remaining
    linear system: the unit vector at the last row's position lies in the
    column span of the submatrix on the rows outside V.
    """
    d = matrix.rows
    if d < 1:
        raise ValueError("matrix needs at least one row")
    out: set[frozenset[int]] = set()
    if not matrix.cols:  # nothing decoded: no subset unlocks anything
        return out
    for vmask in range(1 << (d - 1)):
        kept = [r for r in range(d - 1) if not (vmask >> r) & 1] + [d - 1]
        sub = select_rows(matrix, kept)
        target = 1 << (len(kept) - 1)
        if in_colspan(sub, target):
            out.add(frozenset(r + 1 for r in range(d - 1) if (vmask >> r) & 1))
    return out


def _gamma_value(sizes: Sequence[int], prob: float, k: int, x: float) -> float:
    total = 0.0
    for j, n in enumerate(sizes):
        total += n / (k + 1) * x**j * (1.0 - x) ** (k - j)
    return prob * total


def gamma_k_enum(model: "PncModel", k: int, x: float | Iterable[float]) -> float | list[float]:
    """Degree-k solvability polynomial by brute enumeration of the family.

    Walks every member of family(k+1) with each of its d = k+1 rows moved
    last as the target, enumerates that arrangement's gamma set, and sums
    the weighted subset polynomial over the d targets divided by d, as
    `gamma_counts` averages them.  Deliberately the slow reference route;
    cost grows with family size times d 2^k.  `x` is one point or an
    iterable of points (then a list of values is returned); each gamma set
    is enumerated once for all of them.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    scalar = not hasattr(x, "__iter__")
    points = [x] if scalar else list(x)
    if not all(0.0 <= p <= 1.0 for p in points):
        raise ValueError("x must lie in [0, 1]")
    d = k + 1
    # arrangement -> its gamma set sizes; a stock arrangement recurs d times
    enumerated: dict[BitMatrix, list[int]] = {}
    members = []
    for matrix, prob in model.family(d):
        sizes = [0] * d
        for target in range(d):
            arranged = select_rows(matrix, [r for r in range(d) if r != target] + [target])
            if arranged not in enumerated:
                enumerated[arranged] = [len(subset) for subset in gamma_set(arranged)]
            for size in enumerated[arranged]:
                sizes[size] += 1
        members.append((prob, sizes))
    values = [sum(_gamma_value(sizes, prob, k, p) for prob, sizes in members) for p in points]
    return values[0] if scalar else values


def gamma_closed_form(d: int, x: float) -> float:
    """Closed-form degree-(d-1) solvability polynomial of the stock family,
    every member weighted 1/`family_size`.

    A target row is solved once every other row of one of its routes is
    known (see `_target_routes`): the all-ones column and a pure split give
    x^r for a route through r other rows; a mixed split target with routes
    through r1 and r2 others gives x^r1 + x^r2 - x^(d-1).  Written around
    the rows both routes share, a [0,1] target is
    x^(a1-1) * (x^a3 + x^a2 - x^(a2+a3)), a [1,0] target the same with a1
    and a2 swapped, and a [1,1] target x^(a3-1) * (x^a1 + x^a2 - x^(a1+a2)).
    The result agrees with `gamma_k_enum` on the stock family.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    k = d - 1
    prob = 1.0 / family_size(d)
    value = 0.0
    for _, targets in groupby(_target_routes(d), key=itemgetter(0)):
        value += prob * sum(_route_term(arrangements, routes, k, x) for _, _, arrangements, routes in targets)
    return value


def _route_term(arrangements: int, routes: tuple[int, ...], k: int, x: float) -> float:
    """`arrangements` times the probability that one of a target's routes is
    fully known, each of the other k rows being known with probability x."""
    if len(routes) == 1:
        return arrangements * x ** routes[0]
    shared = sum(routes) - k
    e1, e2 = (r - shared for r in routes)
    return arrangements * x**shared * (x**e1 + x**e2 - x ** (e1 + e2))


@dataclass(frozen=True)
class GammaPoly:
    """Solvability polynomial for one collision size, as plain coefficients.

    coeffs[j] multiplies x**j.  Values are probabilities: within [0, 1] on
    [0, 1] and nondecreasing (more side knowledge never hurts).
    """

    k: int
    coeffs: tuple[float, ...]

    def __call__(self, x):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _counts_to_coeffs(k: int, counts: Sequence) -> tuple[float, ...]:
    """Expand sum_j counts[j] * x^j * (1-x)^(k-j) into monomial coefficients.

    The counts (exact: Fractions, ints or floats) are written over their
    common denominator and expanded in integers, so each coefficient is one
    correctly rounded division, the float of the exact sum."""
    exact = [Fraction(n) for n in counts]
    den = lcm(*(n.denominator for n in exact))
    coeffs = [0] * (k + 1)
    for j, n in enumerate(exact):
        if not n:
            continue
        numerator = n.numerator * (den // n.denominator)
        for m in range(k - j + 1):
            coeffs[j + m] += numerator * comb(k - j, m) * (-1) ** m
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(c / den for c in coeffs)


class PncModel:
    """A cap plus per-collision-size matrix families, with cached analysis tables."""

    def __init__(self, max_decodable: int, families: Mapping[int, WeightedMatrixFamily] | None):
        if max_decodable < 1:
            raise ValueError("max_decodable must be at least 1")
        self.is_example = families is None
        if self.is_example and max_decodable < 2:
            raise ValueError("the stock model needs a cap of at least 2")
        self.max_decodable = max_decodable
        # the families built so far; a custom model's given ones from the start
        self._families: dict[int, WeightedMatrixFamily | StockFamily] = {}
        if families is not None:
            self._families.update(families)
            for d in range(1, max_decodable + 1):
                if d not in families:
                    raise ValueError(f"family for collision size {d} missing")
            for d, fam in families.items():
                if fam.degree != d:
                    raise ValueError(f"family keyed {d} has degree {fam.degree}")
                if d > max_decodable and any(m.cols for m, _ in fam):
                    raise ValueError(f"collision size {d} is above the cap but decodes something")
            one = families[1]
            if one.size != 1 or one.entries[0][0] != _SINGLE.entries[0][0]:
                raise ValueError("size-1 family must be the single [1] matrix")
        self._gamma: dict[int, GammaPoly] = {}

    @classmethod
    def example(cls, max_decodable: int) -> "PncModel":
        """The stock model: uniformly weighted one-or-two-combination families."""
        return cls(max_decodable, None)

    @classmethod
    def from_dict(cls, data: Mapping) -> "PncModel":
        """Build from the JSON shape {"max_decodable": N, "families": {"d": [{"matrix": rows, "prob": p}, ...]}}.

        A missing key, a value of the wrong JSON type or a ragged matrix
        raises ValueError.
        """
        try:
            cap = data["max_decodable"]
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise ValueError(f"max_decodable must be an integer, got {cap!r}")
            families = {}
            for key, entries in data["families"].items():
                d = int(key)
                fam = []
                for entry in entries:
                    matrix = BitMatrix.from_rows(entry["matrix"])
                    if matrix.cols == 0:  # "decodes nothing", however many empty rows are listed
                        matrix = BitMatrix(d, 0)
                    fam.append((matrix, float(entry["prob"])))
                families[d] = WeightedMatrixFamily(d, fam)
        except KeyError as exc:
            raise ValueError(f"model is missing the key {exc}") from exc
        except (TypeError, AttributeError) as exc:  # e.g. a list where an object belongs
            raise ValueError(f"model has a value of the wrong JSON type: {exc}") from exc
        return cls(cap, families)

    @classmethod
    def from_file(cls, path) -> "PncModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def family(self, d: int) -> WeightedMatrixFamily | StockFamily:
        """The family that serves collision size d, built once: the single
        [1] matrix at size 1, the stock family within a stock model's cap, a
        custom model's given family, and the empty matrix otherwise."""
        if d < 1:
            raise ValueError("collision size must be positive")
        if d == 1:
            return _SINGLE
        fam = self._families.get(d)
        if fam is None:
            fam = StockFamily(d) if self.is_example and d <= self.max_decodable else _empty_family(d)
            self._families[d] = fam
        return fam

    def gamma_poly(self, k: int) -> GammaPoly:
        """Cached solvability polynomial for collision size k+1."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        poly = self._gamma.get(k)
        if poly is None:
            poly = self._gamma[k] = GammaPoly(k, _counts_to_coeffs(k, self.family(k + 1).gamma_counts()))
        return poly

    def expected_rank(self, d: int) -> float:
        """Mean decoded-combination count (matrix rank) at collision size d;
        exact for the stock model."""
        return float(self.family(d).expected_rank)
