"""Acceptance criteria.

Each test implements one numbered criterion at its exact stated tolerance
(integer equality everywhere; this package has no floating point) and prints
one PASS line when it holds.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the PASS lines as they happen).
"""

import random
from fractions import Fraction

from subcover.covers import (
    SpaceSpec,
    countable_cover_index,
    cover_finite,
    cover_plan,
    f1_cover_number,
    f1_limit_value,
    filtration_contains,
    lift_cover,
    minimal_cover_count,
    nu,
    projective_assign,
)
from subcover.gf import field_new, is_prime
from subcover.linalg import intersect, quotient, subspace_from_generators
from subcover.oracle import min_cover_size, verify_cover, verify_partition
from subcover.partitions import mixed_partition, spread_partition


def test_criterion_1_sharpness_on_small_instances():
    """min_cover_size == ceil((q^n-1)/(q^(n-k)-1)) exactly on the full
    small grid, with the anchor values pinned."""
    anchors = {(2, 2, 1): 3, (3, 2, 1): 4, (2, 4, 2): 5, (2, 3, 2): 7}
    checked = 0
    for q in (2, 3):
        f = field_new(q, 1)
        for n in range(2, 5):
            for k in range(1, n):
                got = min_cover_size(f, n, k)
                want = minimal_cover_count(q, n, k)
                assert got == want, (q, n, k, got, want)
                if (q, n, k) in anchors:
                    assert got == anchors[(q, n, k)]
                checked += 1
    assert checked == 12
    print(f"ACCEPTANCE 1: PASS - exact sharpness on {checked} instances")


def test_sharpness_on_the_wider_grid():
    """min_cover_size == ceil((q^n-1)/(q^(n-k)-1)) past criterion 1's grid:
    q=2 with n <= 6, q=2 with n=7 and k in {1,2,3,4,6}, q=3 with n=5 and
    k in {1,2,4}, q=4 with n in {3,4}, and q in {5,7} with n=3.  (2,7,5)
    and (3,5,3) are still out of reach."""
    grid = [(2, 1, n, k) for n in range(2, 7) for k in range(1, n)]
    grid += [(2, 1, 7, k) for k in (1, 2, 3, 4, 6)]
    grid += [(3, 1, 5, k) for k in (1, 2, 4)]
    grid += [(2, 2, n, k) for n in (3, 4) for k in range(1, n)]
    grid += [(p, 1, 3, k) for p in (5, 7) for k in (1, 2)]
    for p, m, n, k in grid:
        got = min_cover_size(field_new(p, m), n, k)
        want = minimal_cover_count(p**m, n, k)
        assert got == want, (p**m, n, k, got, want)
    assert len(grid) == 32
    print(f"SHARPNESS: PASS - exact on {len(grid)} instances of the wider grid")


def test_criterion_2_constructive_covers_verified_exhaustively():
    """cover_finite emits exactly the minimal number of dimension-(n-k)
    subspaces and the oracle finds zero uncovered vectors, across the
    full grid; includes the 43-subspace peeling instance."""
    grids = ((2, 10), (3, 8))
    instances = 0
    for q, n_max in grids:
        f = field_new(q, 1)
        for n in range(2, n_max + 1):
            for k in range(1, n):
                cover = cover_finite(f, n, k)
                want = minimal_cover_count(q, n, k)
                assert cover.count == want, (q, n, k)
                assert all(s.dim == n - k for s in cover.subspaces)
                report = verify_cover(cover)
                assert report.ok and not report.uncovered, (q, n, k)
                instances += 1

    showcase = cover_finite(field_new(2, 1), 7, 5)
    assert showcase.count == 43 == 2**5 + 2**3 + 2**1 + 1
    print(f"ACCEPTANCE 2: PASS - {instances} covers verified exhaustively, "
          f"incl. (q=2, n=7, k=5) with 43 = 2^5 + 2^3 + 2 + 1 subspaces")


def test_criterion_3_symbolic_41_29_count():
    """The big-integer identity ceil((q^41-1)/(q^12-1)) = q^29+q^17+q^5+1
    for q in {2,3,5}, and the construction plan predicts that count
    without materializing any subspace."""
    for q in (2, 3, 5):
        closed_form = q**29 + q**17 + q**5 + 1
        ceiling = -(-(q**41 - 1) // (q**12 - 1))
        assert ceiling == closed_form, q

        plan = cover_plan(q, 41, 29)
        assert plan.predicted_count == closed_form, q
        assert nu(SpaceSpec(field_new(q, 1), 41), 29).count \
            == closed_form
    print("ACCEPTANCE 3: PASS - 41/29 count reproduced symbolically "
          "for q in {2,3,5}")


def _prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if is_prime(p):
            q, m = p, 1
            while q <= limit:
                out.append((p, m, q))
                q *= p
                m += 1
    return sorted(out, key=lambda t: t[2])


def test_criterion_4_partition_properties():
    """Every spread (d | n) and mixed (1 <= d <= n/2) partition with
    q^n <= 2^14: pairwise trivial intersections, nonzero-vector counts
    summing to q^n - 1, and the exact part-count formulas."""
    bound = 2**14
    n_spread = n_mixed = 0
    for p, m, q in _prime_powers(128):
        if q * q > bound:
            continue
        f = field_new(p, m)
        n = 2
        while q**n <= bound:
            for d in range(1, n + 1):
                if n % d == 0:
                    part = spread_partition(f, n, d)
                    assert len(part.parts) == (q**n - 1) // (q**d - 1)
                    _check_partition(part)
                    n_spread += 1
                if 2 * d <= n:
                    part = mixed_partition(f, n, d)
                    assert len(part.parts) == q ** (n - d) + 1
                    _check_partition(part)
                    n_mixed += 1
            n += 1
    assert n_spread and n_mixed
    print(f"ACCEPTANCE 4: PASS - {n_spread} spreads and {n_mixed} mixed "
          f"partitions verified under q^n <= 2^14")


def _check_partition(part):
    q, n = part.field.q, part.n
    assert sum(q**s.dim - 1 for s in part.parts) == q**n - 1
    report = verify_partition(part)
    # exactly-one coverage of every nonzero vector certifies that all
    # pairwise intersections are trivial
    assert report.ok and not report.uncovered and not report.double_covered
    if len(part.parts) <= 12:  # exercise the direct route on small families
        for i, a in enumerate(part.parts):
            for b in part.parts[i + 1:]:
                assert intersect(a, b).dim == 0


def test_criterion_5_quotient_lift_for_infinite_dimension_truncations():
    """Lifting the spread cover of a 2k-dimensional quotient through a
    codimension-2k kernel yields exactly q^k + 1 covering subspaces."""
    for q in (2, 3):
        f = field_new(q, 1)
        for k in (1, 2, 3):
            n = 2 * k + 2
            kernel = subspace_from_generators(
                f, n,
                [tuple(1 if j == n - 1 - i else 0 for j in range(n))
                 for i in range(n - 2 * k)],
            )
            quot = quotient(kernel)
            lifted = lift_cover(quot, cover_finite(f, 2 * k, k))
            assert lifted.count == q**k + 1, (q, k)
            assert all(s.codim == k for s in lifted.subspaces)
            report = verify_cover(lifted)
            assert report.ok, (q, k)
    print("ACCEPTANCE 5: PASS - q^k + 1 lifted subspaces cover F^(2k+2) "
          "for q in {2,3}, k in {1,2,3}")


def test_criterion_6_projective_assignment_over_rationals():
    """10 000 seeded pseudo-random rational vectors in a dim-8 model,
    k in {1,2,3,4}: every witness validates exactly and the index always
    leads at the first nonzero designated coordinate."""
    rng = random.Random(2024)
    dim = 8
    total = 0
    for k in (1, 2, 3, 4):
        for _ in range(2500):
            positions = tuple(sorted(rng.sample(range(dim), k + 1)))
            v = tuple(
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                if rng.random() < 0.8 else Fraction(0)
                for _ in range(dim)
            )
            index, witness = projective_assign(v, positions)
            assert witness.validate(v)
            beta = [v[p] for p in positions]
            lead = next((i for i, b in enumerate(beta) if b != 0), None)
            if lead is not None:
                assert index.i == lead
            else:
                assert index.i == k and index.tail == ()
            total += 1
    assert total == 10_000
    print("ACCEPTANCE 6: PASS - 10000 rational membership witnesses "
          "validated exactly")


def test_criterion_7_f1_limit_identity():
    """Exact polynomial evaluation of the counting ratio at q = 1 equals
    n/(n-k), and its ceiling equals the cover number, for all
    1 <= k < n <= 12."""
    for n in range(2, 13):
        for k in range(1, n):
            value = f1_limit_value(n, k)
            assert value == Fraction(n, n - k), (n, k)
            ceiling = -(-value.numerator // value.denominator)
            assert ceiling == f1_cover_number(n, k), (n, k)
    print("ACCEPTANCE 7: PASS - q->1 limit identity on all 1 <= k < n <= 12")


def test_criterion_8_countable_cover_properties():
    """1000 seeded random finite-support vectors: the filtration index is
    the least valid one, and no filtration stage contains a vector
    supported at or beyond its index."""
    rng = random.Random(777)
    for _ in range(1000):
        support = {
            rng.randrange(0, 50): Fraction(rng.randrange(1, 12))
            for _ in range(rng.randrange(1, 7))
        }
        idx = countable_cover_index(support)
        assert filtration_contains(support, idx)
        assert not filtration_contains(support, idx - 1)
        top = max(support)
        for n in range(top + 1):
            assert not filtration_contains(support, n)
    assert countable_cover_index({}) == 0
    print("ACCEPTANCE 8: PASS - 1000 filtration indices are least valid")


def test_nu_case_split_all_four_branches():
    """The infinite-cardinality cases of the classifier (not reproducible
    as experiments) exercised on all four branches."""
    f3 = field_new(3, 1)
    finite = nu(SpaceSpec(f3, 4), 2)
    assert finite.kind == "finite" and finite.count == 10

    countable = nu(SpaceSpec(None, None), 2)
    assert countable.kind == "countably-infinite"

    fin_field_inf_dim = nu(SpaceSpec(f3, None), 2)
    assert fin_field_inf_dim.kind == "field-power-plus-point"
    assert fin_field_inf_dim.count == 3**2 + 1

    inf_field_fin_dim = nu(SpaceSpec(None, 9), 2)
    assert inf_field_fin_dim.kind == "field-power-plus-point"
    assert inf_field_fin_dim.count is None
    print("ACCEPTANCE (case split): PASS - all four classifier branches")
