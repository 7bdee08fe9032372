"""Subspace canonicalization, membership, intersection, quotients, lifts."""

import random
import tracemalloc
from itertools import chain, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcover import linalg, partitions
from subcover.covers import cover_finite
from subcover.gf import field_new
from subcover.linalg import (
    annihilator,
    contains,
    full_subspace,
    intersect,
    invert_matrix,
    kernel,
    lift,
    project,
    quotient,
    rref,
    span_tuples,
    subspace_from_generators,
    subspace_sum,
    subspaces_from_json,
    subspaces_to_json,
    zero_subspace,
)
from subcover.oracle import enumerate_subspaces

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)


def linear_combination(f, coeffs, rows):
    """sum(coeffs[i] * rows[i]) with one field operation per entry, the
    reference the span enumerator must match; rows must be non-empty and
    of equal length."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = f.add(out[j], f.mul(c, x))
    return tuple(out)


def subspace_to_json(s):
    return subspaces_to_json([s], s.field)[0]


def subspace_from_json(doc):
    return subspaces_from_json([doc])[0]


def random_subspace(rng, f, n, max_dim=None):
    rows = rng.randrange(0, (max_dim or n) + 1)
    gens = [tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(rows)]
    return subspace_from_generators(f, n, gens)


class TestRref:
    def test_identity_fixed(self):
        ident = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        r, rank = rref(F3, ident)
        assert list(r) == ident and rank == 3

    def test_dependent_rows_over_f2(self):
        # third row is the sum of the first two, so the rank drops to 2
        r, rank = rref(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert rank == 2
        assert r == ((1, 0, 1), (0, 1, 1), (0, 0, 0))

    def test_zero_matrix(self):
        r, rank = rref(F2, [(0, 0), (0, 0)])
        assert rank == 0 and r == ((0, 0), (0, 0))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rref(F2, [(1, 0), (1,)])

    # an encoding is a plain int: a bool or a float is rejected even where
    # it equals one, and a set of the entries {1, True} would merge them
    @pytest.mark.parametrize("rows", [
        [[True, 0]], [[0, False]], [[1.0, 1]], [[0.5, 1]], [[1, True]],
        [[1, 0], [0, True]],
    ])
    def test_non_int_entries_rejected(self, rows):
        for f in (F2, F3):
            with pytest.raises(ValueError, match="integer encodings"):
                rref(f, rows)
            with pytest.raises(ValueError, match="integer encodings"):
                subspace_from_generators(f, 2, rows)

    def test_rref_is_idempotent_and_canonical(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(1, 6)
            mat = [tuple(rng.randrange(3) for _ in range(n))
                   for _ in range(rng.randrange(0, 5))]
            r, rank = rref(F3, mat)
            r2, rank2 = rref(F3, r)
            assert r == r2 and rank == rank2


class TestSubspaceConstruction:
    def test_lines_of_fq2_are_pairwise_distinct(self):
        for f in (F2, F3, F4):
            lines = [subspace_from_generators(f, 2, [(1, a)]) for a in range(f.q)]
            lines.append(subspace_from_generators(f, 2, [(0, 1)]))
            assert len(set(lines)) == f.q + 1

    def test_empty_generators(self):
        s = subspace_from_generators(F2, 3, [])
        assert s.dim == 0 and s == zero_subspace(F2, 3)

    def test_three_generators_rank_two(self):
        s = subspace_from_generators(F2, 3, [(1, 0, 1), (0, 1, 1), (1, 1, 0)])
        assert s.dim == 2
        assert s.basis == ((1, 0, 1), (0, 1, 1))

    def test_canonicality_under_regeneration(self):
        # generator sets with equal span must give bitwise-identical values
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(1, 7)
            s = random_subspace(rng, F3, n)
            if s.dim == 0:
                continue
            for _ in range(4):
                # shuffled basis plus random extra combinations: same span
                gens = list(s.basis)
                rng.shuffle(gens)
                for _ in range(rng.randrange(0, 3)):
                    coeffs = [rng.randrange(3) for _ in range(s.dim)]
                    gens.insert(rng.randrange(len(gens) + 1),
                                linear_combination(F3, coeffs, s.basis))
                rebuilt = subspace_from_generators(F3, n, gens)
                assert rebuilt == s
                assert rebuilt.basis == s.basis

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            subspace_from_generators(F2, 3, [(1, 0)])


class TestContains:
    def test_zero_always_contained(self):
        rng = random.Random(3)
        for _ in range(20):
            s = random_subspace(rng, F3, 4)
            assert contains(s, (0, 0, 0, 0))

    def test_example_membership(self):
        s = subspace_from_generators(F2, 3, [(1, 0, 1), (0, 1, 1)])
        assert contains(s, (1, 1, 0))       # (1,0,1) + (0,1,1)
        assert not contains(s, (1, 1, 1))

    def test_closed_under_combinations(self):
        rng = random.Random(5)
        for _ in range(30):
            s = random_subspace(rng, F4, 4)
            if s.dim == 0:
                continue
            u = linear_combination(
                F4, [rng.randrange(4) for _ in range(s.dim)], s.basis)
            v = linear_combination(
                F4, [rng.randrange(4) for _ in range(s.dim)], s.basis)
            for c in range(4):
                w = tuple(F4.add(a, F4.mul(c, b)) for a, b in zip(u, v))
                assert contains(s, w)

    def test_dimension_mismatch(self):
        s = subspace_from_generators(F2, 3, [(1, 0, 1)])
        with pytest.raises(ValueError):
            contains(s, (1, 0))

    @pytest.mark.parametrize("v", [(5, 0), (1.0, 0), (0, 5), (True, 0)])
    def test_vector_entries_checked(self, v):
        s = subspace_from_generators(F2, 2, [(1, 0)])
        with pytest.raises(ValueError) as exc:
            contains(s, v)
        assert str(exc.value) == ("vector entries must be integer encodings "
                                  f"in [0, 2), got {list(v)!r}")


class TestIntersectAndSum:
    def test_idempotence(self):
        s = subspace_from_generators(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
        assert intersect(s, s) == s
        assert subspace_sum(s, s) == s

    def test_distinct_lines_meet_at_origin_only(self):
        a = subspace_from_generators(F2, 2, [(1, 0)])
        b = subspace_from_generators(F2, 2, [(0, 1)])
        assert intersect(a, b).dim == 0
        assert subspace_sum(a, b).dim == 2

    def test_two_hyperplanes_of_f2_4(self):
        a = subspace_from_generators(
            F2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        b = subspace_from_generators(
            F2, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        got = intersect(a, b)
        assert got.dim == 2
        assert got == subspace_from_generators(
            F2, 4, [(0, 1, 0, 0), (0, 0, 1, 0)])

    def test_intersection_by_exhaustive_membership(self):
        # independent oracle: intersect must equal the set-wise intersection
        rng = random.Random(13)
        for _ in range(25):
            s = random_subspace(rng, F2, 4)
            t = random_subspace(rng, F2, 4)
            got = intersect(s, t)
            members = [v for v in product(range(2), repeat=4)
                       if contains(s, v) and contains(t, v)]
            want = subspace_from_generators(F2, 4, members)
            assert got == want

    def test_dimension_formula_and_subadditivity(self):
        rng = random.Random(17)
        for f in (F2, F3):
            for _ in range(40):
                n = rng.randrange(1, 6)
                s = random_subspace(rng, f, n)
                t = random_subspace(rng, f, n)
                meet, join = intersect(s, t), subspace_sum(s, t)
                assert s.dim + t.dim == meet.dim + join.dim
                assert meet.codim <= s.codim + t.codim

    def test_annihilator_involution(self):
        rng = random.Random(19)
        for _ in range(25):
            s = random_subspace(rng, F3, 5)
            assert annihilator(annihilator(s)) == s

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            intersect(zero_subspace(F2, 2), zero_subspace(F2, 3))
        with pytest.raises(ValueError):
            subspace_sum(zero_subspace(F2, 2), zero_subspace(F3, 2))


class TestKernel:
    @staticmethod
    def dot(f, a, b):
        acc = 0
        for x, y in zip(a, b):
            acc = f.add(acc, f.mul(x, y))
        return acc

    @pytest.mark.parametrize("f", [F2, F3, F4], ids=repr)
    def test_kernel_is_the_brute_force_null_space(self, f):
        # kernel(f, rows, n) against {x : row . x = 0 for every row}, over
        # all of F^n: no rows, the identity, a random full-rank matrix and
        # random row sets of up to n + 2 rows
        rng = random.Random(29)
        cases = []
        for n in range(1, 5):
            identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            while True:
                square = [tuple(rng.randrange(f.q) for _ in range(n))
                          for _ in range(n)]
                if rref(f, square)[1] == n:
                    break
            cases += [(n, []), (n, identity), (n, square)]
            cases += [(n, [tuple(rng.randrange(f.q) for _ in range(n))
                           for _ in range(rng.randrange(n + 3))])
                      for _ in range(12)]
        for n, rows in cases:
            got = kernel(f, rows, n)
            want = {x for x in product(range(f.q), repeat=n)
                    if all(self.dot(f, row, x) == 0 for row in rows)}
            assert set(span_tuples(f, got.basis, n)) == want, (n, rows)
            assert got.dim == n - rref(f, rows)[1]


class TestQuotientProjectLift:
    def test_zero_kernel_gives_identity(self):
        q = quotient(zero_subspace(F2, 3))
        assert q.coords == (0, 1, 2)
        for v in [(1, 0, 1), (0, 1, 1)]:
            assert project(q, v) == v

    def test_line_kernel_in_f2_2(self):
        v0 = subspace_from_generators(F2, 2, [(1, 0)])
        q = quotient(v0)
        assert project(q, (0, 1)) == (1,)
        assert project(q, (1, 0)) == (0,)

    def test_kernel_is_exactly_v0(self):
        rng = random.Random(23)
        for _ in range(20):
            v0 = random_subspace(rng, F3, 4, max_dim=3)
            if v0.dim == 4:
                continue
            q = quotient(v0)
            for v in product(range(3), repeat=4):
                assert (not any(project(q, v))) == contains(v0, v)

    def test_coordinate_map_rank_and_kernel_rows(self):
        v0 = subspace_from_generators(F3, 4, [(1, 0, 2, 1), (0, 1, 1, 0)])
        q = quotient(v0)
        _, rank = rref(F3, q.coordinate_map)
        assert rank == 2 == q.codim
        for row in v0.basis:
            assert not any(project(q, row))

    @pytest.mark.parametrize("v,message", [
        ((0, 7), "vector entries must be integer encodings in [0, 2), "
                 "got [0, 7]"),
        ((0, -1), "vector entries must be integer encodings in [0, 2), "
                  "got [0, -1]"),
        ((0, 1, 0), "dimension mismatch"),
    ])
    def test_project_checks_the_vector(self, v, message):
        q = quotient(subspace_from_generators(F2, 2, [(1, 0)]))
        with pytest.raises(ValueError) as exc:
            project(q, v)
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([F2, F3, F4, field_new(3, 2), field_new(257, 1)]),
           st.integers(1, 5), st.data())
    def test_project_is_the_coordinate_map_product(self, f, n, data):
        entries = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)
        # at most n - 1 generators span a proper kernel
        gens = data.draw(st.lists(entries, max_size=n - 1))
        v = data.draw(entries)
        q = quotient(subspace_from_generators(f, n, gens))
        want = []
        for row in q.coordinate_map:
            acc = 0
            for a, b in zip(row, v, strict=True):
                acc = f.add(acc, f.mul(a, b))
            want.append(acc)
        assert project(q, v) == tuple(want)

    def test_full_kernel_rejected(self):
        with pytest.raises(ValueError):
            quotient(full_subspace(F2, 3))

    @pytest.mark.parametrize("s_bar", [zero_subspace(F2, 3),
                                       zero_subspace(F3, 2)])
    def test_lift_of_another_space_rejected(self, s_bar):
        q = quotient(subspace_from_generators(F2, 4, [(0, 0, 1, 0),
                                                      (0, 0, 0, 1)]))
        with pytest.raises(ValueError, match="ambient space mismatch"):
            lift(q, s_bar)

    def test_lift_trivial_cases(self):
        v0 = subspace_from_generators(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        q = quotient(v0)
        assert lift(q, zero_subspace(F2, 2)) == v0
        assert lift(q, full_subspace(F2, 2)) == full_subspace(F2, 4)

    def test_lift_of_diagonal_line(self):
        v0 = subspace_from_generators(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        q = quotient(v0)
        got = lift(q, subspace_from_generators(F2, 2, [(1, 1)]))
        assert got.dim == 3
        for v in [(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)]:
            assert contains(got, v)

    def test_lift_project_adjunction(self):
        rng = random.Random(29)
        for _ in range(20):
            v0 = random_subspace(rng, F2, 5, max_dim=3)
            if v0.dim == 5:
                continue
            q = quotient(v0)
            s_bar = random_subspace(rng, F2, q.codim)
            lifted = lift(q, s_bar)
            assert lifted.dim == s_bar.dim + v0.dim
            for v in product(range(2), repeat=5):
                assert contains(lifted, v) == contains(s_bar, project(q, v))


class TestEnumerateVectors:
    def test_zero_subspace(self):
        s = zero_subspace(F2, 3)
        assert list(span_tuples(F2, s.basis, s.n)) == [(0, 0, 0)]

    def test_line_over_f3(self):
        s = subspace_from_generators(F3, 2, [(1, 2)])
        vs = list(span_tuples(F3, s.basis, 2))
        assert vs == [(0, 0), (1, 2), (2, 1)]

    def test_plane_over_f2(self):
        s = subspace_from_generators(F2, 3, [(1, 0, 1), (0, 1, 1)])
        vs = list(span_tuples(F2, s.basis, 3))
        assert len(vs) == 4 == len(set(vs))


class TestSpanTuples:
    # q**(n-1) exceeds SPAN_BLOCK for GF(2)^14, GF(3)^9 and GF(9)^5, so
    # their largest spans are walked as a head span over a tail block; a
    # block of 8 makes most spans enumerate their head through several
    # levels of that recursion.  GF(2^8), GF(2^9) and GF(257) have more
    # than 8 multiples of a row, so there the tail keeps its one row.
    # The blocks of whole vectors add two entries in a byte, and GF(27)
    # and GF(49) add base-p digits held in one byte.  The other fields
    # have no byte sum and take the list columns, built with mul and
    # shifted with add: above 256 elements (GF(257)^3's planes shift them
    # by the vectors of a one-row head), in GF(131) and GF(251), where the
    # sum of two entries would carry into the next byte, and in GF(125)
    # and GF(243), which have more digits than one byte holds.
    @pytest.mark.parametrize("block", [linalg.SPAN_BLOCK, 8])
    @pytest.mark.parametrize("p,m,n", [
        (2, 1, 14), (2, 2, 6), (3, 1, 9), (3, 2, 5), (5, 1, 5), (2, 8, 2),
        (2, 9, 2), (257, 1, 2), (257, 1, 3), (131, 1, 3), (251, 1, 3),
        (3, 3, 4), (7, 2, 3), (5, 3, 3), (3, 5, 3),
    ])
    def test_matches_linear_combinations_in_order(self, p, m, n, block,
                                                  monkeypatch):
        monkeypatch.setattr(linalg, "SPAN_BLOCK", block)
        f = field_new(p, m)
        rng = random.Random(100 * p + 10 * m + n)
        for dim in sorted({0, rng.randrange(n), n - 1}):
            gens = []
            s = zero_subspace(f, n)
            while s.dim < dim:
                gens.append(tuple(rng.randrange(f.q) for _ in range(n)))
                s = subspace_from_generators(f, n, gens)
            want = [linear_combination(f, c, s.basis) if s.basis else (0,) * n
                    for c in product(range(f.q), repeat=dim)]
            assert list(span_tuples(f, s.basis, n)) == want

    # up to q = 256 one row is read off the multiplication tables; GF(257)
    # and GF(2^9) keep the columns of the general path
    @pytest.mark.parametrize("p,m", [
        (2, 1), (3, 1), (2, 2), (2, 8), (257, 1), (2, 9),
    ])
    def test_one_row_matches_linear_combinations_in_order(self, p, m):
        f = field_new(p, m)
        rng = random.Random(10 * p + m)
        lead = rng.randrange(2, f.q) if f.q > 2 else 1  # GF(2) has no other
        top = f.q - 1
        rows = [
            (0, 0, 0),  # the zero row
            (1, rng.randrange(f.q), top),  # lead 1
            (0, lead, rng.randrange(f.q), top),  # a lead other than 1
            (lead,), (1,), (0,),  # width 1
        ]
        for row in rows:
            want = [linear_combination(f, (c,), [row]) for c in range(f.q)]
            assert list(span_tuples(f, [row], len(row))) == want

    @pytest.mark.parametrize("p,m,n,block,depths", [
        (2, 1, 10, 4, [10, 8, 6, 4, 2]), (3, 1, 6, 9, [6, 4, 2]),
        (3, 2, 3, 9, [3, 2, 1]),
    ])
    def test_head_recursion_several_levels_deep(self, p, m, n, block, depths,
                                                monkeypatch):
        # each level keeps a tail block of as many rows as fit the block and
        # enumerates the rows before them by calling span_tuples again
        monkeypatch.setattr(linalg, "SPAN_BLOCK", block)
        f = field_new(p, m)
        rng = random.Random(n * block)
        rows = [tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(n)]
        calls, inner = [], linalg.span_tuples

        def counted(f, rows, width):
            calls.append(len(rows))
            return inner(f, rows, width)

        monkeypatch.setattr(linalg, "span_tuples", counted)
        got = list(counted(f, rows, n))
        assert calls == depths
        assert got == [linear_combination(f, c, rows)
                       for c in product(range(f.q), repeat=n)]

    def test_list_columns_over_two_tail_rows(self, monkeypatch):
        # a default block holds one tail row above 256 elements, so only a
        # larger one joins list columns longer than one entry
        monkeypatch.setattr(linalg, "SPAN_BLOCK", 257**2)
        f = field_new(257, 1)
        rows = [(1, 0, 5), (0, 1, 7)]
        want = [linear_combination(f, c, rows)
                for c in product(range(f.q), repeat=2)]
        assert list(span_tuples(f, rows, 3)) == want

    def test_list_columns_over_three_tail_rows(self, monkeypatch):
        # each earlier entry spreads the column in turn, which only three
        # or more tail rows tell apart; vectors are sampled by position
        monkeypatch.setattr(linalg, "SPAN_BLOCK", 81**3)
        f = field_new(3, 4)
        rows = [(1, 2), (5, 0), (7, 80)]
        got = list(span_tuples(f, rows, 2))
        assert len(got) == 81**3
        for i in random.Random(81).sample(range(81**3), 500) + [0, 81**3 - 1]:
            c = (i // 81**2, i // 81 % 81, i % 81)
            assert got[i] == linear_combination(f, c, rows)

    def test_zero_width(self):
        assert list(span_tuples(F3, [], 0)) == [()]
        assert list(span_tuples(F3, [(), ()], 0)) == [()] * 9

    def test_memory_stays_bounded(self):
        s = full_subspace(F2, 20)
        tracemalloc.start()
        try:
            first = list(islice(span_tuples(F2, s.basis, 20), 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == [tuple(c) for c in
                         islice(product(range(2), repeat=20), 10)]
        assert peak < 4 * 2**20


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5),
             max_size=4),
    st.lists(st.lists(st.integers(0, 2), min_size=5, max_size=5),
             max_size=4),
)
def test_dimension_formula_property(n, rows_s, rows_t):
    s = subspace_from_generators(F3, 5, rows_s)
    t = subspace_from_generators(F3, 5, rows_t)
    assert s.dim + t.dim == intersect(s, t).dim + subspace_sum(s, t).dim


def _ref_rref(f, matrix):
    """rref with one Python check per entry, the rules the fast checks
    must keep."""
    rows = [list(r) for r in matrix]
    if not rows:
        return (), 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    for r in rows:
        if any(type(e) is not int or not 0 <= e < f.q for e in r):
            raise ValueError(
                f"matrix entries must be integer encodings in [0, {f.q}), "
                f"got {r!r}")
    nrows, pivot_row = len(rows), 0
    for col in range(width):
        src = next((r for r in range(pivot_row, nrows) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        piv = rows[pivot_row]
        if piv[col] != 1:
            ic = f.inv(piv[col])
            for j in range(col, width):
                piv[j] = f.mul(ic, piv[j])
        for r in range(nrows):
            if r != pivot_row and rows[r][col]:
                factor, row = rows[r][col], rows[r]
                for j in range(col, width):
                    if piv[j]:
                        row[j] = f.sub(row[j], f.mul(factor, piv[j]))
        pivot_row += 1
        if pivot_row == nrows:
            break
    return tuple(tuple(r) for r in rows), pivot_row


def _ref_from_generators(f, n, vectors):
    rows = [tuple(v) for v in vectors]
    for row in rows:
        if len(row) != n:
            raise ValueError(f"generator has length {len(row)}, ambient is {n}")
    reduced, rank = _ref_rref(f, rows)
    basis = reduced[:rank]
    return basis, tuple(next(j for j, e in enumerate(r) if e) for r in basis)


def _ref_from_rref(f, n, basis):
    rows = tuple(tuple(r) for r in basis)
    if any(len(row) != n for row in rows):
        raise ValueError("basis row has wrong length")
    for row in rows:
        if any(type(e) is not int or not 0 <= e < f.q for e in row):
            raise ValueError(
                f"basis entries must be integer encodings in [0, {f.q}), "
                f"got {list(row)!r}")
    pivots = []
    for row in rows:
        lead = next((j for j, e in enumerate(row) if e), None)
        if lead is None:
            raise ValueError("zero row in basis")
        if row[lead] != 1:
            raise ValueError("pivot entry is not 1")
        if pivots and lead <= pivots[-1]:
            raise ValueError("pivot columns not strictly increasing")
        pivots.append(lead)
    for i, pc in enumerate(pivots):
        for r, row in enumerate(rows):
            if r != i and row[pc] != 0:
                raise ValueError("pivot column not cleared")
    return rows, tuple(pivots)


def _outcome(fn, *args):
    """The result, or the type and message of what was raised."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, linalg.Subspace):
        return out.basis, out.pivots
    return out


@st.composite
def _suspect_matrices(draw):
    """Rows over GF(2), GF(3) or GF(4) whose entries may be out of range or
    not ints, some ragged, some of width 0, some a valid RREF with one
    entry replaced."""
    f = draw(st.sampled_from([F2, F3, F4]))
    n = draw(st.integers(0, 4))
    entry = st.one_of(
        st.integers(0, f.q - 1),
        st.sampled_from([-1, f.q, f.q + 1, True, False, 0.5, 1.0, None]))
    if n and draw(st.booleans()):
        gens = draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n,
                                      max_size=n), max_size=3))
        rows = [list(r) for r in subspace_from_generators(f, n, gens).basis]
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(
                st.integers(0, n - 1))
            rows[i][j] = draw(entry)
    else:
        width = st.one_of(st.just(n), st.integers(0, 5))
        rows = draw(st.lists(
            width.flatmap(lambda w: st.lists(entry, min_size=w, max_size=w)),
            max_size=3))
    return f, n, rows


@settings(max_examples=400, deadline=None)
@given(_suspect_matrices())
def test_fast_checks_accept_and_reject_as_the_per_entry_rules(case):
    f, n, rows = case
    assert _outcome(rref, f, rows) == _outcome(_ref_rref, f, rows)
    assert (_outcome(subspace_from_generators, f, n, rows)
            == _outcome(_ref_from_generators, f, n, rows))
    assert (_outcome(linalg.subspace_from_rref, f, n, rows)
            == _outcome(_ref_from_rref, f, n, rows))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F2, F3, F4, field_new(257, 1)]), st.integers(1, 6),
       st.data())
def test_pivots_are_the_leading_columns(f, n, data):
    gens = data.draw(st.lists(st.lists(st.integers(0, f.q - 1), min_size=n,
                                       max_size=n), max_size=n + 1))
    s = subspace_from_generators(f, n, gens)
    assert s.pivots == tuple(next(j for j, e in enumerate(row) if e)
                             for row in s.basis)


@pytest.mark.parametrize("f,row", [
    (F3, (0, 2, 1, 2)),
    (F4, (0, 2, 3, 1)),  # lead x
    (field_new(257, 1), (0, 256, 3, 0, 128)),
    (F3, (0, 0, 0)),
], ids=["lead-2-gf3", "lead-x-gf4", "lead-256-gf257", "zero-row"])
def test_one_row_matches_the_reference(f, row):
    # one row is reduced by the same column loop as more rows
    reduced, rank = _ref_rref(f, [row])
    assert rref(f, [row]) == (reduced, rank)
    s = subspace_from_generators(f, len(row), [row])
    assert (s.basis, s.pivots) == _ref_from_generators(f, len(row), [row])


@pytest.mark.parametrize("f,n", [(F3, 4), (field_new(5, 2), 3)])
def test_one_row_parts_are_spanned_without_elimination(monkeypatch, f, n):
    # the d = 1 mixed partition is one part of n - 1 rows and q^(n-1)
    # one-row parts; only the first is eliminated while the family is
    # spanned, and every part is the per-part reference's reduction of its
    # generators, in order
    seen, calls = [], []
    spans, eliminate = partitions._spans, linalg._eliminate

    def record_spans(f, n, gens):
        calls.clear()  # building the field extension eliminates too
        seen.append(gens)
        return spans(f, n, gens)

    def record_eliminate(f, rows):
        calls.append(len(rows))
        return eliminate(f, rows)

    monkeypatch.setattr(partitions, "_spans", record_spans)
    monkeypatch.setattr(linalg, "_eliminate", record_eliminate)
    parts = partitions.mixed_partition(f, n, 1).parts
    assert calls == [n - 1]
    [gens] = seen
    assert len(gens) == len(parts) == 1 + f.q ** (n - 1)
    assert [(s.basis, s.pivots) for s in parts] == [
        _ref_from_generators(f, n, rows) for rows in gens]


@pytest.mark.parametrize("f,n", [(F2, 6), (F3, 4), (F4, 3),
                                 (field_new(257, 1), 2)])
def test_lines_share_their_pivot_tuples(f, n):
    # a family of lines holds the n distinct pivot tuples once each, and
    # its lines equal those the constructor builds one at a time
    lines = partitions.spread_partition(f, n, 1).parts
    assert len({id(s.pivots) for s in lines}) == n
    assert lines == tuple(linalg.Subspace(f, n, s.basis, s.pivots)
                          for s in lines)
    assert len(set(lines)) == len(lines) == (f.q**n - 1) // (f.q - 1)


F1021 = field_new(1021, 1)

# each way the package builds a subspace, with a few of its results
CONSTRUCTION_PATHS = {
    "_lines, leads other than 1": lambda: [
        subspace_from_generators(F3, 3, [(0, 2, 1)]),
        subspace_from_generators(F4, 3, [(0, 3, 2)]),
        subspace_from_generators(F1021, 2, [(1020, 5)]),
        *partitions.spread_partition(F4, 3, 1).parts],
    "_span": lambda: [
        subspace_from_generators(F3, 3, [(1, 2, 0), (2, 1, 1)]),
        subspace_from_generators(F3, 3, [])],
    "subspace_from_rref": lambda: [
        linalg.subspace_from_rref(F3, 3, [[1, 0, 2], [0, 1, 1]])],
    "bulk reader": lambda: [
        *subspaces_from_json(subspaces_to_json(
            partitions.spread_partition(F4, 3, 1).parts, F4), F4),
        *subspaces_from_json(subspaces_to_json(
            partitions.spread_partition(F2, 4, 2).parts, F2), F2)],
    "enumerate_subspaces": lambda: enumerate_subspaces(F3, 3, 2),
    "peeled cover with a tail": lambda: cover_finite(F2, 7, 5).subspaces,
    "zero_subspace": lambda: [zero_subspace(F4, 3)],
    "full_subspace": lambda: [full_subspace(F4, 3)],
}


@pytest.mark.parametrize("path", CONSTRUCTION_PATHS)
def test_every_construction_path_builds_the_same_subspace(path):
    subspaces = CONSTRUCTION_PATHS[path]()
    assert subspaces
    for s in subspaces:
        assert type(s) is linalg.Subspace
        assert type(s.basis) is type(s.pivots) is tuple
        assert set(map(type, s.basis)) <= {tuple}
        assert set(map(type, chain(*s.basis))) <= {int}
        again = linalg.Subspace(s.field, s.n, s.basis, s.pivots)
        assert s == again and hash(s) == hash(again)
        for name in linalg.Subspace._fields:
            with pytest.raises(AttributeError):
                setattr(s, name, getattr(s, name))
        assert repr(s) == f"Subspace(dim {s.dim} of {s.field!r}^{s.n})"


def test_subspace_repr():
    assert repr(zero_subspace(F4, 3)) == "Subspace(dim 0 of GF(2^2)^3)"
    assert repr(enumerate_subspaces(F3, 3, 2)[0]) == (
        "Subspace(dim 2 of GF(3)^3)")


class TestMatrixInverse:
    def test_round_trip(self):
        rng = random.Random(31)
        hits = 0
        while hits < 10:
            rows = tuple(tuple(rng.randrange(3) for _ in range(4))
                         for _ in range(4))
            try:
                inv = invert_matrix(F3, rows)
            except ValueError:
                continue
            hits += 1
            for i in range(4):
                got = linear_combination(F3, rows[i], inv)
                assert got == tuple(1 if j == i else 0 for j in range(4))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            invert_matrix(F2, ((1, 1), (1, 1)))


F257 = field_new(257, 1)


# a one-row basis is rejected with the messages a row of a longer one gets
@pytest.mark.parametrize("f,n,row,message", [
    (F3, 3, [0, 0, 0], "zero row in basis"),
    (F3, 1, [0], "zero row in basis"),
    (F257, 2, [0, 0], "zero row in basis"),
    (F3, 3, [0, 2, 1], "pivot entry is not 1"),
    (F3, 1, [2], "pivot entry is not 1"),
    (F4, 2, [0, 2], "pivot entry is not 1"),
    (F257, 2, [256, 1], "pivot entry is not 1"),
    (F3, 3, [1, 0], "basis row has wrong length"),
    (F3, 3, [1, 0, 0, 0], "basis row has wrong length"),
    (F3, 3, [True, 0, 0], "basis entries must be integer encodings in "
                          "[0, 3), got [True, 0, 0]"),
    (F3, 3, [0, 1, True], "basis entries must be integer encodings in "
                          "[0, 3), got [0, 1, True]"),
    (F3, 1, [True], "basis entries must be integer encodings in "
                    "[0, 3), got [True]"),
    (F3, 3, [1.0, 0, 0], "basis entries must be integer encodings in "
                         "[0, 3), got [1.0, 0, 0]"),
    (F3, 3, [1, -1, 0], "basis entries must be integer encodings in "
                        "[0, 3), got [1, -1, 0]"),
    (F3, 3, [1, 0, 3], "basis entries must be integer encodings in "
                       "[0, 3), got [1, 0, 3]"),
    (F3, 3, [0, 0, 3], "basis entries must be integer encodings in "
                       "[0, 3), got [0, 0, 3]"),
    (F3, 3, [2, 3, 0], "basis entries must be integer encodings in "
                       "[0, 3), got [2, 3, 0]"),
    (F4, 2, [0, 4], "basis entries must be integer encodings in "
                    "[0, 4), got [0, 4]"),
    (F257, 2, [1, 257], "basis entries must be integer encodings in "
                        "[0, 257), got [1, 257]"),
])
def test_one_row_read_keeps_its_messages(f, n, row, message):
    with pytest.raises(ValueError) as exc:
        linalg.subspace_from_rref(f, n, [row])
    assert str(exc.value) == message


_F3_DOC = {"p": 3, "m": 1, "modulus": [0, 1]}


# a family whose third document is bad and whose fourth lacks its basis:
# the error named is the third's
@pytest.mark.parametrize("third,message", [
    ({"field": _F3_DOC, "n": 3},
     "malformed subspace document: missing key 'basis'"),
    ({"n": 3, "basis": [[1, 0, 0]]},
     "malformed subspace document: missing key 'field'"),
    ([1, 2], "malformed subspace document: expected an object, got list"),
    ("doc", "malformed subspace document: expected an object, got str"),
    ({"field": _F3_DOC, "n": True, "basis": [[1, 0, 0]]},
     "subspace n must be an integer, got True"),
    ({"field": _F3_DOC, "n": 0, "basis": [[1, 0, 0]]},
     "subspace n must be at least 1, got 0"),
    ({"field": _F3_DOC, "n": 3, "basis": [1, 0, 0]},
     "malformed subspace document: basis must be a list of rows"),
    ({"field": _F3_DOC, "n": 3, "basis": [[True, 0, 0]]},
     "basis entries must be integer encodings in [0, 3), got [True, 0, 0]"),
    ({"field": _F3_DOC, "n": 3, "basis": [[1, 0, 2.0]]},
     "basis entries must be integer encodings in [0, 3), got [1, 0, 2.0]"),
    ({"field": _F3_DOC, "n": 3, "basis": [[0, 0, 0]]}, "zero row in basis"),
    ({"field": _F3_DOC, "n": 3, "basis": [[2, 0, 0]]},
     "pivot entry is not 1"),
    ({"field": _F3_DOC, "n": 3, "basis": [[1, 0]]},
     "basis row has wrong length"),
    ({"field": {"p": 3, "m": 1, "modulus": [1, 1]}, "n": 3,
      "basis": [[1, 0, 0]]},
     "modulus [1, 1] is not the canonical modulus for GF(3^1)"),
    ({"field": {"p": 3, "m": 1}, "n": 3, "basis": [[1, 0, 0]]},
     "malformed field document: missing key 'modulus'"),
    ({"field": _F3_DOC, "n": 3, "basis": [[1, 0, 0], [1, 1, 0]]},
     "pivot columns not strictly increasing"),
])
@pytest.mark.parametrize("ambient", [F3, None], ids=["ambient", "own-field"])
def test_family_read_names_the_first_bad_document(third, message, ambient):
    good = [{"field": _F3_DOC, "n": 3, "basis": [[1, 2, 0]]},
            {"field": _F3_DOC, "n": 3, "basis": [[0, 1, 1]]}]
    docs = good + [third, {"field": _F3_DOC, "n": 3}]
    with pytest.raises(ValueError) as exc:
        subspaces_from_json(docs, ambient)
    assert str(exc.value) == message


class TestJson:
    def test_round_trip(self):
        s = subspace_from_generators(F4, 3, [(1, 2, 3), (0, 1, 1)])
        assert subspace_from_json(subspace_to_json(s)) == s

    def test_rejects_non_rref(self):
        doc = {
            "field": {"p": 2, "m": 1, "modulus": [0, 1]},
            "n": 3,
            # pivots 0 and 1, and the first row is 1 in column 1
            "basis": [[1, 1, 0], [0, 1, 1]],
        }
        with pytest.raises(ValueError, match="pivot column not cleared"):
            subspace_from_json(doc)

    def test_rejects_zero_row_and_bad_pivot(self):
        base = {"field": {"p": 2, "m": 1, "modulus": [0, 1]}, "n": 2}
        with pytest.raises(ValueError):
            subspace_from_json({**base, "basis": [[0, 0]]})
        with pytest.raises(ValueError):
            subspace_from_json({**base, "basis": [[0, 1], [1, 0]]})
