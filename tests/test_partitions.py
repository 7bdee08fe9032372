"""Spread and mixed partitions, plus the extension-field model behind them."""

import itertools

import pytest

from subcover.gf import field_new
from subcover.linalg import intersect, vec_scale
from subcover.oracle import verify_partition
from subcover.partitions import (
    FieldExtension,
    mixed_partition,
    partition_from_json,
    partition_to_json,
    spread_partition,
)

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)
F8 = field_new(2, 3)
F9 = field_new(3, 2)


def nonzero_count(partition):
    return sum(partition.field.q**p.dim - 1 for p in partition.parts)


class TestFieldExtension:
    @pytest.mark.parametrize("base,deg", [
        (F2, 4), (F3, 3), (F4, 2), (F8, 2), (F9, 2), (F2, 1), (F4, 1),
    ])
    def test_coordinate_round_trip(self, base, deg):
        ext = FieldExtension(base, deg)
        seen = set()
        for coords in itertools.product(range(base.q), repeat=deg):
            w = ext.from_coords(coords)
            assert ext.to_coords(w) == coords
            seen.add(w)
        assert len(seen) == base.q**deg  # the power basis really is a basis

    @pytest.mark.parametrize("base,deg", [
        (F2, 4), (F3, 3), (F2, 1), (F4, 1), (F9, 1),
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
                assert ext.embed(base.add(a, b)) == top.add(
                    ext.embed(a), ext.embed(b))
                assert ext.embed(base.mul(a, b)) == top.mul(
                    ext.embed(a), ext.embed(b))
        assert ext.embed(0) == 0 and ext.embed(1) == 1

    @pytest.mark.parametrize("base,deg", [(F4, 2), (F9, 2)])
    def test_scalar_action_matches_coordinates(self, base, deg):
        ext = FieldExtension(base, deg)
        for w in range(ext.top.q):
            coords = ext.to_coords(w)
            for c in range(base.q):
                scaled = ext.top.mul(ext.embed(c), w)
                assert ext.to_coords(scaled) == vec_scale(base, c, coords)


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

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            spread_partition(F2, 5, 2)

    def test_rejects_over_bound(self, monkeypatch):
        monkeypatch.setenv("SUBCOVER_MAX_Q_POW", "64")
        with pytest.raises(ValueError):
            spread_partition(F2, 8, 2)

    def test_deterministic(self):
        assert spread_partition(F3, 4, 2) == spread_partition(F3, 4, 2)


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


class TestJson:
    def test_round_trip(self):
        for p in (spread_partition(F3, 2, 1), mixed_partition(F2, 5, 2)):
            assert partition_from_json(partition_to_json(p)) == p

    def test_rejects_unknown_kind(self):
        doc = partition_to_json(spread_partition(F2, 2, 1))
        doc["kind"] = "exotic"
        with pytest.raises(ValueError):
            partition_from_json(doc)

    def test_rejects_mismatched_part(self):
        doc = partition_to_json(spread_partition(F2, 2, 1))
        doc["parts"][0]["n"] = 3
        doc["parts"][0]["basis"] = [[1, 0, 0]]
        with pytest.raises(ValueError):
            partition_from_json(doc)
