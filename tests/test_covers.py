"""Cardinality classifier, constructive covers, projective assignment,
filtration covers, and the q -> 1 limit."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from subcover.covers import (
    COUNTABLY_INFINITE,
    FIELD_POWER_PLUS_POINT,
    FINITE,
    Cover,
    CoverCardinality,
    ProjectiveIndex,
    Provenance,
    SpaceSpec,
    countable_cover_index,
    cover_finite,
    cover_from_json,
    cover_plan,
    cover_to_json,
    f1_cover_number,
    f1_limit_value,
    filtration_contains,
    follows_plan,
    lift_cover,
    minimal_cover_count,
    nu,
    projective_assign,
)
from subcover.gf import field_new
from subcover.linalg import (
    Subspace,
    full_subspace,
    lift,
    quotient,
    subspace_from_generators,
    zero_subspace,
)
from subcover.oracle import verify_cover
from subcover.partitions import spread_partition

F2 = field_new(2, 1)
F3 = field_new(3, 1)
F4 = field_new(2, 2)


class TestNu:
    def test_lines_case(self):
        for f in (F2, F3, F4):
            got = nu(SpaceSpec(f, 2), 1)
            assert got == CoverCardinality(FINITE, count=f.q + 1)
        assert nu(SpaceSpec(F2, 2), 1).count == 3

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_41_29_closed_form(self, q):
        f = field_new(q, 1)
        got = nu(SpaceSpec(f, 41), 29)
        assert got.count == q**29 + q**17 + q**5 + 1

    def test_doubly_infinite(self):
        got = nu(SpaceSpec(None, None), 3)
        assert got.kind == COUNTABLY_INFINITE

    def test_finite_field_infinite_dim(self):
        for k in (1, 2, 5):
            got = nu(SpaceSpec(F3, None), k)
            assert got.kind == FIELD_POWER_PLUS_POINT and got.k == k
            assert got.count == 3**k + 1

    def test_infinite_field_finite_dim(self):
        got = nu(SpaceSpec(None, 10), 4)
        assert got.kind == FIELD_POWER_PLUS_POINT and got.k == 4
        assert got.count is None

    def test_monotone_in_k(self):
        for q in (2, 3, 4):
            f = field_new(q, 1) if q != 4 else F4
            for n in range(3, 9):
                counts = [nu(SpaceSpec(f, n), k).count
                          for k in range(1, n)]
                assert counts == sorted(counts)

    @pytest.mark.parametrize("k,n", [(0, 3), (3, 3), (4, 3)])
    def test_cover_count_needs_k_below_n(self, k, n):
        # nu checks k first; minimal_cover_count checks again for its own
        # callers
        with pytest.raises(ValueError) as exc:
            minimal_cover_count(2, n, k)
        assert str(exc.value) == f"need 1 <= k < n, got k={k}, n={n}"

    def test_validation(self):
        with pytest.raises(ValueError):
            nu(SpaceSpec(F2, 3), 3)
        with pytest.raises(ValueError):
            nu(SpaceSpec(F2, 3), 0)
        with pytest.raises(ValueError):
            nu(SpaceSpec(None, 4), 4)
        with pytest.raises(ValueError):
            CoverCardinality(FINITE, count=1)
        with pytest.raises(ValueError):
            CoverCardinality(FIELD_POWER_PLUS_POINT, k=0)


class TestF1Limit:
    def test_two_subsets(self):
        assert f1_cover_number(2, 1) == 2
        assert f1_limit_value(2, 1) == Fraction(2, 1)

    def test_41_29(self):
        assert f1_cover_number(41, 29) == 4
        assert f1_limit_value(41, 29) == Fraction(41, 12)
        # the same 4 shows up as the number of summands in the plan
        assert len(cover_plan(2, 41, 29).steps) + 1 == 4

    def test_divisible_case(self):
        assert f1_cover_number(4, 2) == 2

    def test_full_grid_matches_exact_division(self):
        for n in range(2, 13):
            for k in range(1, n):
                value = f1_limit_value(n, k)
                assert value == Fraction(n, n - k)
                assert -(-value.numerator // value.denominator) \
                    == f1_cover_number(n, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            f1_cover_number(4, 4)
        with pytest.raises(ValueError):
            f1_limit_value(4, 0)


class TestCoverPlan:
    def test_spread_route(self):
        plan = cover_plan(2, 4, 2)
        assert plan.kind == "spread"
        assert plan.predicted_count == 5

    def test_peeling_route_summands(self):
        plan = cover_plan(2, 7, 5)
        assert plan.kind == "peeling"
        assert [s.kind for s in plan.steps] == ["peel", "peel", "tail"]
        # the summand pattern 2^5 + 2^3 + (2^1 + 1)
        assert [s.count for s in plan.steps] == [32, 8, 3]
        assert plan.steps[-1].kernel_dim == 1
        assert plan.steps[-1].quotient_dim == 2

    def test_telescoping_identity_grid(self):
        for q in (2, 3, 4, 5):
            for n in range(2, 13):
                for k in range(1, n):
                    plan = cover_plan(q, n, k)
                    # independent big-integer evaluation of the ceiling
                    want = -(-(q**n - 1) // (q ** (n - k) - 1))
                    assert plan.predicted_count == want

    def test_41_29_plan_without_materialization(self):
        for q in (2, 3, 5):
            plan = cover_plan(q, 41, 29)
            assert plan.predicted_count == q**29 + q**17 + q**5 + 1
            assert [s.ambient_dim for s in plan.steps] == [41, 29, 17]

    def test_validation(self):
        with pytest.raises(ValueError):
            cover_plan(2, 4, 0)
        with pytest.raises(ValueError):
            cover_plan(2, 4, 4)
        with pytest.raises(ValueError):
            cover_plan(1, 4, 2)


# every (q, n, k) with q^n <= 2^12 whose cover plan ends in a tail step
TAIL_INSTANCES = [
    (p, m, n, k) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                              (3, 2), (11, 1), (13, 1), (2, 4))
    for n in range(2, 13) if (p**m) ** n <= 2**12
    for k in range(1, n) if cover_plan(p**m, n, k).steps[-1].kind == "tail"]


class TestCoverFinite:
    def test_three_lines(self):
        c = cover_finite(F2, 2, 1)
        assert c.count == 3
        assert verify_cover(c).ok

    def test_peeling_instance_2_7_5(self):
        c = cover_finite(F2, 7, 5)
        assert c.count == 43 == 2**5 + 2**3 + 2 + 1
        assert all(s.dim == 2 for s in c.subspaces)
        assert c.provenance.kind == "peeling"
        assert verify_cover(c).ok

    def test_spread_instance_2_4_2(self):
        c = cover_finite(F2, 4, 2)
        assert c.count == 5
        assert c.provenance.kind == "spread"
        assert verify_cover(c).ok

    @pytest.mark.parametrize("f,q,n_max", [(F2, 2, 8), (F3, 3, 6), (F4, 4, 5)])
    def test_grid_counts_dims_and_coverage(self, f, q, n_max):
        for n in range(2, n_max + 1):
            for k in range(1, n):
                c = cover_finite(f, n, k)
                assert c.count == minimal_cover_count(q, n, k)
                assert all(s.dim == n - k for s in c.subspaces)
                report = verify_cover(c)
                assert report.ok and not report.uncovered

    def test_deterministic(self):
        assert cover_finite(F3, 5, 2) == cover_finite(F3, 5, 2)

    def test_larger_instances_up_to_2_pow_16(self):
        # spread route at the 2^16 scale, 257 parts
        c = cover_finite(F2, 16, 8)
        assert c.count == 257
        assert verify_cover(c).ok
        # tail-only route (no peel): n < 2d
        c = cover_finite(F2, 15, 4)
        assert c.count == minimal_cover_count(2, 15, 4) == 17
        assert [s.kind for s in c.provenance.steps] == ["tail"]
        assert verify_cover(c).ok

    @pytest.mark.parametrize("p,m,n,k", TAIL_INSTANCES)
    def test_tail_parts_are_the_lift_of_a_quotient_spread(self, p, m, n, k):
        # the tail quotients F^dim by the span of its last kernel_dim unit
        # vectors, spreads the quotient, lifts each part and pads it to F^n
        f = field_new(p, m)
        c = cover_finite(f, n, k)
        tail = c.provenance.steps[-1]
        dim = tail.ambient_dim
        units = full_subspace(f, dim).basis[dim - tail.kernel_dim:]
        quot = quotient(subspace_from_generators(f, dim, units))
        spread = spread_partition(f, tail.quotient_dim,
                                  tail.block_dim - tail.kernel_dim)
        lifted = [lift(quot, part) for part in spread.parts]
        pad = (0,) * (n - dim)
        assert c.subspaces[-tail.count:] == tuple(
            Subspace(f, n, tuple(row + pad for row in s.basis), s.pivots)
            for s in lifted)

    def test_validation(self):
        with pytest.raises(ValueError):
            cover_finite(F2, 4, 0)
        with pytest.raises(ValueError):
            cover_finite(F2, 4, 4)


class TestLiftCover:
    def test_lift_three_lines_to_f2_fourth(self):
        v0 = subspace_from_generators(
            F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        q = quotient(v0)
        lifted = lift_cover(q, cover_finite(F2, 2, 1))
        assert lifted.count == 3
        assert all(s.dim == 3 for s in lifted.subspaces)
        assert verify_cover(lifted).ok

    def test_lift_through_zero_kernel_is_identity(self):
        q = quotient(zero_subspace(F2, 3))
        c = cover_finite(F2, 3, 1)
        lifted = lift_cover(q, c)
        assert lifted.subspaces == c.subspaces

    def test_qk_plus_one_hyperplanes(self):
        # covering F^4 with k=1 through a quotient of dimension 2k = 2
        v0 = subspace_from_generators(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        q = quotient(v0)
        lifted = lift_cover(q, cover_finite(F2, 2, 1))
        assert lifted.count == 2**1 + 1
        assert all(s.codim == 1 for s in lifted.subspaces)
        assert verify_cover(lifted).ok

    def test_ambient_mismatch(self):
        q = quotient(subspace_from_generators(F2, 4, [(0, 0, 0, 1)]))
        with pytest.raises(ValueError):
            lift_cover(q, cover_finite(F2, 2, 1))  # quotient has dim 3

    def test_lifted_covers_follow_their_plan(self):
        # a lift of a peeling cover, and a lift of that lift
        inner = cover_finite(F2, 5, 2)
        once = lift_cover(quotient(subspace_from_generators(
            F2, 6, [(0, 0, 0, 0, 0, 1)])), inner)
        twice = lift_cover(quotient(zero_subspace(F2, 6)), once)
        for c in (inner, once, twice):
            assert follows_plan(c) and verify_cover(c).ok
        assert [s.kind for s in twice.provenance.steps] == [
            "lift", "lift", *(s.kind for s in inner.provenance.steps)]

    @pytest.mark.parametrize("edit", [
        lambda steps: [replace(steps[0], ambient_dim=5), *steps[1:]],
        lambda steps: [replace(steps[0], block_dim=4), *steps[1:]],
        lambda steps: [replace(steps[0], count=4), *steps[1:]],
        lambda steps: [replace(steps[0], kernel_dim=0, quotient_dim=4),
                       *steps[1:]],
        lambda steps: steps[1:],
        lambda steps: steps[:1],
    ], ids=["ambient", "block", "count", "kernel", "no-lift", "no-plan"])
    def test_lift_steps_that_do_not_fit_fail(self, edit):
        v0 = subspace_from_generators(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        c = lift_cover(quotient(v0), cover_finite(F2, 2, 1))
        prov = Provenance("lifted", tuple(edit(list(c.provenance.steps))))
        doctored = Cover(F2, 4, 1, c.subspaces, prov)
        assert not follows_plan(doctored)
        assert not verify_cover(doctored).ok

    def test_plan_of_another_kind_fails(self):
        c = cover_finite(F2, 4, 2)
        for kind in ("peeling", "lifted"):
            doctored = Cover(F2, 4, 2, c.subspaces,
                             Provenance(kind, c.provenance.steps))
            assert not follows_plan(doctored)


def rref_fractions(rows):
    """Reduced row-echelon form over the rationals (test-side oracle)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    piv = 0
    for col in range(ncols):
        src = next((r for r in range(piv, nrows) if mat[r][col]), None)
        if src is None:
            continue
        mat[piv], mat[src] = mat[src], mat[piv]
        lead = mat[piv][col]
        mat[piv] = [x / lead for x in mat[piv]]
        for r in range(nrows):
            if r != piv and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[piv])]
        piv += 1
    return tuple(tuple(x for x in row) for row in mat[:piv])


class TestProjectiveAssign:
    def test_already_normal(self):
        v = (1, 0, 0, 9, 9)  # beta = (1, 0, 0) on the first three positions
        index, witness = projective_assign(v, (0, 1, 2))
        assert index == ProjectiveIndex(0, (Fraction(0), Fraction(0)))
        assert witness.validate(v)

    def test_k1_scaling(self):
        v = (2, 3, 7, 11)
        index, witness = projective_assign(v, (0, 1))
        assert index == ProjectiveIndex(0, (Fraction(3, 2),))
        assert witness.coefficient == 2
        assert witness.validate(v)
        # the residual v - 2 * generator is supported off the designated slots
        residual = [Fraction(x) - 2 * g for x, g in zip(v, witness.generator)]
        assert residual[0] == residual[1] == 0

    def test_leading_zero_then_scale(self):
        v = (0, 5, 7, 4)
        index, witness = projective_assign(v, (0, 1, 2))
        assert index == ProjectiveIndex(1, (Fraction(7, 5),))
        assert witness.validate(v)

    def test_vector_supported_off_designated(self):
        v = (0, 0, 3, 4)
        index, witness = projective_assign(v, (0, 1))
        assert index == ProjectiveIndex(1, ())
        assert witness.coefficient == 0
        assert witness.validate(v)

    def test_negative_leading_position_rejected(self):
        with pytest.raises(ValueError, match="leading position must be >= 0"):
            ProjectiveIndex(-1, ())

    def test_witness_of_another_length_fails(self):
        v = (2, 3, 7, 11)
        _, witness = projective_assign(v, (0, 1))
        assert witness.validate(v)
        assert not witness.validate(v[:3])
        assert not witness.validate(v + (0,))

    def test_random_witnesses_validate(self):
        rng = random.Random(41)
        for _ in range(300):
            dim = 8
            k = rng.choice((1, 2, 3, 4))
            positions = tuple(sorted(rng.sample(range(dim), k + 1)))
            v = tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                      for _ in range(dim))
            index, witness = projective_assign(v, positions)
            assert witness.validate(v)
            beta = [v[p] for p in positions]
            lead = next((i for i, b in enumerate(beta) if b != 0), None)
            if lead is not None:
                assert index.i == lead

    def test_distinct_indices_give_distinct_subspaces(self):
        # truncated model of dimension 5, k = 2: the subspace for index x is
        # the span of the complement coordinates plus the x generator
        import itertools

        dim, k = 5, 2
        positions = (0, 1, 2)
        rest = (3, 4)
        values = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]
        canonical = {}
        for i in range(k + 1):
            for tail in itertools.product(values, repeat=k - i):
                x = ProjectiveIndex(i, tail)
                gen = [Fraction(0)] * dim
                for j, p in enumerate(positions):
                    gen[p] = x.normal_form()[j]
                rows = [tuple(Fraction(1) if c == p else Fraction(0)
                              for c in range(dim)) for p in rest]
                rows.append(tuple(gen))
                canonical[x] = rref_fractions(rows)
        forms = list(canonical.values())
        assert len(set(forms)) == len(forms)

    def test_malformed_positions(self):
        with pytest.raises(ValueError):
            projective_assign((1, 2, 3), (0, 0))
        with pytest.raises(ValueError):
            projective_assign((1, 2, 3), (0, 5))
        with pytest.raises(ValueError):
            projective_assign((1, 2, 3), (0,))


class TestCountableCover:
    def test_zero_vector(self):
        assert countable_cover_index({}) == 0

    def test_single_support(self):
        assert countable_cover_index({4: Fraction(2)}) == 5

    def test_example_support(self):
        support = {1: 2, 7: Fraction(1, 3), 9: 5}
        assert countable_cover_index(support) == 10
        assert filtration_contains(support, 10)
        assert not filtration_contains(support, 9)

    def test_least_index_property(self):
        rng = random.Random(43)
        for _ in range(200):
            support = {
                rng.randrange(0, 40): Fraction(rng.randrange(1, 9))
                for _ in range(rng.randrange(1, 6))
            }
            idx = countable_cover_index(support)
            assert filtration_contains(support, idx)
            assert not filtration_contains(support, idx - 1)

    def test_rejects_zero_scalar_and_bad_index(self):
        with pytest.raises(ValueError):
            countable_cover_index({3: 0})
        with pytest.raises(ValueError):
            countable_cover_index({-1: 2})


class TestCoverJson:
    def test_round_trip(self):
        for c in (cover_finite(F3, 4, 2), cover_finite(F2, 7, 5)):
            assert cover_from_json(cover_to_json(c)) == c

    def test_lifted_round_trip(self):
        v0 = subspace_from_generators(F2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        c = lift_cover(quotient(v0), cover_finite(F2, 2, 1))
        assert cover_from_json(cover_to_json(c)) == c

    def test_rejects_count_mismatch(self):
        doc = cover_to_json(cover_finite(F2, 2, 1))
        doc["count"] = 7
        with pytest.raises(ValueError):
            cover_from_json(doc)

    def test_rejects_wrong_dimension_subspace(self):
        doc = cover_to_json(cover_finite(F2, 3, 1))
        doc["subspaces"][0]["basis"] = [[1, 0, 0]]
        with pytest.raises(ValueError):
            cover_from_json(doc)
