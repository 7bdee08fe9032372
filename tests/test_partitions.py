"""Spread and mixed partitions, plus the extension-field model behind them."""

import itertools
from collections import Counter

import pytest

from subcover import gf, partitions
from subcover.gf import FIELD_CACHE_SIZE, field_new, is_prime
from subcover.linalg import intersect, subspace_from_generators
from subcover.oracle import verify_partition
from subcover.partitions import (
    FieldExtension,
    Partition,
    follows_kind,
    mixed_partition,
    partition_from_json,
    partition_to_json,
    partition_shape,
    spread_partition,
)

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)
F8 = field_new(2, 3)
F9 = field_new(3, 2)


def embed(ext, c):
    """Image in the top field of a base-field encoding: ``c`` itself over a
    prime base or at degree 1, where ``FieldExtension`` keeps no table."""
    return c if ext._embed is None else ext._embed[c]


def from_coords(ext, coords):
    """The top-field element with the given power-basis coordinates,
    summed one basis element at a time: the reference for ``to_coords``."""
    top = ext.top
    w = 0
    for c, b in zip(coords, ext.power_basis, strict=True):
        if c:
            w = top.add(w, top.mul(embed(ext, c), b))
    return w


def swept_lines(f, n):
    """The lines of GF(q)^n by the general spread construction: the cosets
    alpha GF(q)* of GF(q^n) in increasing least element alpha, each the
    span of alpha's coordinates.  The reference for ``_prime_lines``."""
    ext = FieldExtension(f, n)
    units = ext.top.subfield(f.m)[1:]
    powers = ext.top.subfield(ext.top.m)[1:]
    step = len(powers) // len(units)
    alphas = sorted(min(powers[i::step]) for i in range(step))
    return tuple(subspace_from_generators(f, n, [ext.to_coords(alpha)])
                 for alpha in alphas)


def nonzero_count(partition):
    return sum(partition.field.q**p.dim - 1 for p in partition.parts)


class TestFieldExtension:
    @pytest.mark.parametrize("base,deg", [
        (F2, 4), (F3, 3), (F4, 2), (F8, 2), (F9, 2), (F2, 1), (F4, 1),
        (F2, 14), (F4, 7),
        # odd characteristic over extension bases, degree >= 3 and odd m*t
        (F9, 3), (field_new(5, 2), 2), (field_new(3, 3), 3), (F8, 3),
    ])
    def test_coordinate_round_trip(self, base, deg):
        ext = FieldExtension(base, deg)
        seen = set()
        for coords in itertools.product(range(base.q), repeat=deg):
            w = from_coords(ext, coords)
            assert ext.to_coords(w) == coords
            seen.add(w)
        assert len(seen) == base.q**deg  # the power basis really is a basis

    @pytest.mark.parametrize("base,deg", [
        (F2, 4), (F3, 3), (F2, 1), (F4, 1), (F9, 1),
        (F2, 14), (F3, 9), (field_new(11, 1), 4),
    ])
    def test_identity_conversion_gives_the_top_digits(self, base, deg):
        # over a prime base or at degree 1 the coordinates are the top
        # field's base-p digits, m at a time
        ext = FieldExtension(base, deg)
        p, m = base.p, base.m
        for w in range(ext.top.q):
            digits = ext.top.digits(w)
            assert ext.to_coords(w) == tuple(
                sum(d * p**j for j, d in enumerate(digits[i * m:(i + 1) * m]))
                for i in range(deg))

    @pytest.mark.parametrize("base,deg", [(F4, 2), (F9, 2), (F8, 2)])
    def test_embedding_is_a_ring_homomorphism(self, base, deg):
        ext = FieldExtension(base, deg)
        top = ext.top
        for a in range(base.q):
            for b in range(base.q):
                assert embed(ext, base.add(a, b)) == top.add(
                    embed(ext, a), embed(ext, b))
                assert embed(ext, base.mul(a, b)) == top.mul(
                    embed(ext, a), embed(ext, b))
        assert embed(ext, 0) == 0 and embed(ext, 1) == 1

    @pytest.mark.parametrize("base,deg", [(F4, 2), (F9, 2)])
    def test_scalar_action_matches_coordinates(self, base, deg):
        ext = FieldExtension(base, deg)
        for w in range(ext.top.q):
            coords = ext.to_coords(w)
            for c in range(base.q):
                scaled = ext.top.mul(embed(ext, c), w)
                assert ext.to_coords(scaled) == tuple(
                    base.mul(c, x) for x in coords)


@pytest.mark.parametrize("degree", [0, -1])
def test_extension_degree_below_one_rejected(degree):
    with pytest.raises(ValueError, match="extension degree must be >= 1"):
        FieldExtension(F2, degree)


class TestSpread:
    def test_lines_of_f2_squared(self):
        p = spread_partition(F2, 2, 1)
        assert len(p.parts) == 3
        assert all(s.dim == 1 for s in p.parts)
        assert verify_partition(p).ok

    def test_five_planes_of_f2_fourth(self):
        p = spread_partition(F2, 4, 2)
        assert len(p.parts) == 5 == (2**4 - 1) // (2**2 - 1)
        assert verify_partition(p).ok

    def test_four_lines_of_f3_squared_pairwise_trivial(self):
        p = spread_partition(F3, 2, 1)
        assert len(p.parts) == 4
        for a, b in itertools.combinations(p.parts, 2):
            assert intersect(a, b).dim == 0

    @pytest.mark.parametrize("f,n,d", [
        (F2, 6, 2), (F2, 6, 3), (F3, 4, 2), (F4, 4, 2), (F8, 2, 1),
        (F9, 2, 1), (F2, 8, 4), (F3, 3, 1), (F2, 4, 4),
    ])
    def test_count_dims_and_exhaustive_check(self, f, n, d):
        p = spread_partition(f, n, d)
        assert len(p.parts) == (f.q**n - 1) // (f.q**d - 1)
        assert all(s.dim == d for s in p.parts)
        assert nonzero_count(p) == f.q**n - 1
        assert verify_partition(p).ok

    @pytest.mark.parametrize("p,n", [
        (p, n) for p in (2, 3, 5, 7, 11, 13, 257)
        for n in range(1, 15) if n == 1 or p**n <= 2**14])
    def test_prime_lines_are_the_coset_sweep(self, p, n):
        f = field_new(p, 1)
        parts = spread_partition(f, n, 1).parts
        want = swept_lines(f, n)
        assert parts == want
        assert [s.pivots for s in parts] == [s.pivots for s in want]
        # built in one pass, the parts still hash and cannot be assigned to
        assert set(parts) == set(want)
        with pytest.raises(AttributeError):
            parts[-1].n = n

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            spread_partition(F2, 5, 2)

    def test_rejects_over_bound(self, monkeypatch):
        monkeypatch.setenv("SUBCOVER_MAX_Q_POW", "64")
        with pytest.raises(ValueError):
            spread_partition(F2, 8, 2)

    def test_deterministic(self):
        assert spread_partition(F3, 4, 2) == spread_partition(F3, 4, 2)

    def test_extension_cache_is_bounded(self):
        # each cached top field keeps its tables; lines over a prime field
        # build no top field, the spread of GF(p)^2 into one plane does
        primes = [p for p in range(2, 80) if is_prime(p)]
        assert len(primes) > FIELD_CACHE_SIZE
        for p in primes:
            assert len(spread_partition(field_new(p, 1), 2, 1).parts) == p + 1
            assert len(spread_partition(field_new(p, 1), 2, 2).parts) == 1
        assert gf._build_field.cache_info().currsize <= FIELD_CACHE_SIZE


class TestMixed:
    def test_f2_fifth_with_d2(self):
        p = mixed_partition(F2, 5, 2)
        dims = sorted(s.dim for s in p.parts)
        assert dims == [2] * 8 + [3]
        # 7 nonzero vectors in the big part, 3 in each graph: 7 + 8*3 = 31
        assert nonzero_count(p) == 31 == 2**5 - 1
        assert verify_partition(p).ok

    def test_boundary_d_equals_half_n(self):
        p = mixed_partition(F2, 4, 2)
        assert len(p.parts) == 1 + 2**2 == 5
        assert all(s.dim == 2 for s in p.parts)
        # same size as the spread of planes, as the counts predict
        assert len(p.parts) == len(spread_partition(F2, 4, 2).parts)
        assert verify_partition(p).ok

    def test_f3_fifth_counting_identity(self):
        p = mixed_partition(F3, 5, 2)
        assert len(p.parts) == 1 + 27
        assert nonzero_count(p) == 26 + 27 * 8 == 242 == 3**5 - 1
        assert verify_partition(p).ok

    def test_graphs_meet_trivially(self):
        p = mixed_partition(F3, 4, 2)
        for a, b in itertools.combinations(p.parts, 2):
            assert intersect(a, b).dim == 0

    @pytest.mark.parametrize("f,n,d", [
        (F2, 2, 1), (F3, 2, 1), (F4, 4, 2), (F2, 7, 3), (F9, 4, 2),
        (F8, 4, 2), (F2, 6, 1),
    ])
    def test_count_dims_and_exhaustive_check(self, f, n, d):
        p = mixed_partition(f, n, d)
        assert len(p.parts) == f.q ** (n - d) + 1
        assert p.parts[0].dim == n - d
        assert all(s.dim == d for s in p.parts[1:])
        assert verify_partition(p).ok

    def test_rejects_oversized_d(self):
        with pytest.raises(ValueError):
            mixed_partition(F2, 5, 3)
        with pytest.raises(ValueError):
            mixed_partition(F2, 4, 0)

    def test_literature_range_flag(self):
        assert mixed_partition(F2, 7, 2).literature_range        # 1 < 2 < 3.5
        assert not mixed_partition(F2, 6, 1).literature_range    # d = 1
        assert not mixed_partition(F2, 6, 3).literature_range    # d = n/2
        assert spread_partition(F2, 6, 3).literature_range

    def test_deterministic(self):
        assert mixed_partition(F4, 4, 2) == mixed_partition(F4, 4, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("kind,build", [("spread", spread_partition),
                                        ("mixed", mixed_partition)])
def test_builders_follow_the_shape(kind, build, q):
    """Each builder raises exactly when ``partition_shape`` does, with its
    message, and otherwise builds the shape's part dimensions and
    ``literature_range``, which ``follows_kind`` accepts."""
    f = field_new(2, 2) if q == 4 else field_new(q, 1)
    for n in range(1, 7):
        for d in range(-1, n + 2):
            try:
                want, literature = partition_shape(kind, q, n, d)
            except ValueError as exc:
                with pytest.raises(ValueError) as built:
                    build(f, n, d)
                assert str(built.value) == str(exc)
                continue
            p = build(f, n, d)
            assert Counter(s.dim for s in p.parts) == want
            assert p.literature_range == literature
            assert follows_kind(p)


def _small_partitions():
    """(build, f, n, d) of every spread and mixed partition of GF(q)^n
    with n >= 2 and q^n <= 2^10."""
    for q in range(2, 33):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        m = next((m for m in range(1, 6) if p**m == q), None)
        if m is None:
            continue
        f = field_new(p, m)
        for n in itertools.takewhile(lambda n: q**n <= 2**10,
                                     itertools.count(2)):
            for d in range(1, n + 1):
                if n % d == 0:
                    yield spread_partition, f, n, d
                if 2 * d <= n:
                    yield mixed_partition, f, n, d


def test_parts_are_the_checked_spans_of_their_generators(monkeypatch):
    # the constructions check their rows once per family and then reduce
    # each part unchecked; each part must be what the checked public path
    # builds from the same generators
    seen = []
    spans = partitions._spans

    def record(f, n, gens):
        seen.append((f, n, gens))
        return spans(f, n, gens)

    monkeypatch.setattr(partitions, "_spans", record)
    for build, f, n, d in _small_partitions():
        parts = build(f, n, d).parts
        f, n, gens = seen.pop()
        assert parts == tuple(subspace_from_generators(f, n, rows)
                              for rows in gens)


@pytest.mark.parametrize("bad", [-1, 4, True, 1.0])
@pytest.mark.parametrize("build", [spread_partition, mixed_partition])
def test_a_bad_generator_entry_is_rejected(monkeypatch, build, bad):
    # one out-of-range entry, in the part generated by the top field's 1
    to_coords = FieldExtension.to_coords

    def corrupt(self, w):
        coords = to_coords(self, w)
        return (bad,) + coords[1:] if w == 1 else coords

    monkeypatch.setattr(FieldExtension, "to_coords", corrupt)
    with pytest.raises(ValueError, match="integer encodings in"):
        build(F4, 4, 2)


class TestJson:
    def test_round_trip(self):
        for p in (spread_partition(F3, 2, 1), mixed_partition(F2, 5, 2)):
            assert partition_from_json(partition_to_json(p)) == p

    def test_rejects_unknown_kind(self):
        doc = partition_to_json(spread_partition(F2, 2, 1))
        doc["kind"] = "exotic"
        with pytest.raises(ValueError):
            partition_from_json(doc)

    @pytest.mark.parametrize("part", [
        subspace_from_generators(F3, 2, [(1, 0)]),
        subspace_from_generators(F2, 3, [(1, 0, 0)]),
    ], ids=["field", "n"])
    def test_partition_rejects_a_part_in_another_space(self, part):
        p = spread_partition(F2, 2, 1)
        with pytest.raises(ValueError, match="mismatched ambient space"):
            Partition(F2, 2, 1, "spread", p.parts[:2] + (part,),
                      literature_range=True)

    def test_rejects_mismatched_part(self):
        doc = partition_to_json(spread_partition(F2, 2, 1))
        doc["parts"][0]["n"] = 3
        doc["parts"][0]["basis"] = [[1, 0, 0]]
        with pytest.raises(ValueError):
            partition_from_json(doc)
