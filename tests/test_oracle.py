"""Brute-force oracle: subspace enumeration, exhaustive verification,
exact minimality search."""

import random
from dataclasses import replace
from functools import cache
from itertools import chain, combinations, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcover import oracle
from subcover.covers import (
    Cover,
    cover_finite,
    follows_plan,
    minimal_cover_count,
)
from subcover.gf import field_new
from subcover.linalg import (
    contains,
    span_tuples,
    subspace_from_generators,
    zero_subspace,
)
from subcover.oracle import (
    _index_weights,
    _point_masks,
    enumerate_subspaces,
    gaussian_binomial,
    min_cover_size,
    verify_cover,
    verify_partition,
)
from subcover.partitions import (
    Partition,
    follows_kind,
    mixed_partition,
    spread_partition,
)
from test_linalg import linear_combination

F2 = field_new(2, 1)
F3 = field_new(3, 1)


def projective_points(f, n):
    """Canonical representatives of the lines of F^n: first nonzero
    coordinate scaled to 1, ordered by leading index then suffix.  This is
    the point order that ``oracle._index_weights`` encodes."""
    return tuple((0,) * lead + (1,) + suffix for lead in range(n)
                 for suffix in product(range(f.q), repeat=n - lead - 1))


class TestGaussianBinomial:
    def test_trivial_ends(self):
        assert gaussian_binomial(7, 0, 3) == 1
        assert gaussian_binomial(7, 7, 3) == 1

    def test_35_planes(self):
        assert gaussian_binomial(4, 2, 2) == (15 * 14) // (3 * 2) == 35

    def test_symmetry(self):
        for q in (2, 3, 4):
            for n in range(1, 8):
                for d in range(n + 1):
                    assert gaussian_binomial(n, d, q) \
                        == gaussian_binomial(n, n - d, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_binomial(3, 4, 2)


class TestProjectivePoints:
    @pytest.mark.parametrize("f,n", [(F2, 2), (F2, 4), (F3, 3)])
    def test_count_and_canonical_reps(self, f, n):
        pts = projective_points(f, n)
        assert len(pts) == (f.q**n - 1) // (f.q - 1)
        for p in pts:
            lead = next(x for x in p if x)
            assert lead == 1

    def test_pairwise_non_proportional(self):
        pts = projective_points(F3, 2)
        seen = set()
        for p in pts:
            for c in range(1, 3):
                scaled = tuple(F3.mul(c, x) for x in p)
                assert scaled not in seen
                seen.add(scaled)


class TestEnumerateSubspaces:
    def test_three_lines(self):
        subs = enumerate_subspaces(F2, 2, 1)
        assert len(subs) == 3

    def test_fifteen_hyperplanes(self):
        subs = enumerate_subspaces(F2, 4, 3)
        assert len(subs) == 15 == gaussian_binomial(4, 3, 2)

    def test_thirteen_planes_of_f3_cubed(self):
        subs = enumerate_subspaces(F3, 3, 2)
        assert len(subs) == 13 == gaussian_binomial(3, 2, 3)

    @pytest.mark.parametrize("f,n,d", [
        (F2, 4, 2), (F2, 5, 2), (F3, 3, 1), (F3, 4, 2), (F2, 5, 3),
    ])
    def test_count_distinct_dims(self, f, n, d):
        subs = enumerate_subspaces(f, n, d)
        assert len(subs) == gaussian_binomial(n, d, f.q)
        assert len(set(subs)) == len(subs)
        assert all(s.dim == d for s in subs)

    def test_zero_dimension(self):
        subs = enumerate_subspaces(F3, 3, 0)
        assert len(subs) == 1 and subs[0].dim == 0

    def test_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subspaces(F2, 10, 5)

    @pytest.mark.parametrize("p,m,n", [(2, 1, 5), (3, 1, 4), (2, 2, 3),
                                       (7, 1, 3)])
    def test_order_matches_cell_by_cell_reference(self, p, m, n):
        # the search breaks ties by candidate index, so the order matters:
        # pivots in lexicographic order, then the free cells row-major in
        # product order (the last cell fastest)
        f = field_new(p, m)
        for d in range(n + 1):
            want = []
            for pivots in combinations(range(n), d):
                cells = [(i, c) for i in range(d)
                         for c in range(pivots[i] + 1, n) if c not in pivots]
                for values in product(range(f.q), repeat=len(cells)):
                    rows = [[int(c == pv) for c in range(n)] for pv in pivots]
                    for (i, c), v in zip(cells, values):
                        rows[i][c] = v
                    want.append((tuple(map(tuple, rows)), pivots))
            got = [(s.basis, s.pivots) for s in enumerate_subspaces(f, n, d)]
            assert got == want, (p, m, n, d)


def lines_cover(f):
    """The q+1 lines of F_q^2 packaged as a Cover."""
    c = cover_finite(f, 2, 1)
    return c


class TestVerify:
    def test_lines_pass_as_cover_and_partition(self):
        c = lines_cover(F3)
        assert verify_cover(c).ok
        p = spread_partition(F3, 2, 1)
        report = verify_partition(p)
        assert report.ok and report.checked == 8

    def test_removed_line_leaves_q_minus_1_uncovered(self):
        c = lines_cover(F3)
        removed = c.subspaces[0]
        smaller = Cover(F3, 2, 1, c.subspaces[1:], c.provenance)
        report = verify_cover(smaller)
        assert not report.ok
        assert len(report.uncovered) == 3 - 1 == 2
        for v in report.uncovered:
            assert contains(removed, v)

    def test_mixed_partition_passes(self):
        assert verify_partition(mixed_partition(F2, 5, 2)).ok

    @pytest.mark.parametrize("build,n,d", [
        (mixed_partition, 5, 2), (mixed_partition, 4, 2),
        (spread_partition, 6, 3)])
    def test_part_order_is_not_read(self, build, n, d):
        # the distinguished part of a mixed partition need not come first
        p = build(F2, n, d)
        for parts in (p.parts[::-1], p.parts[1:] + p.parts[:1]):
            assert verify_partition(replace(p, parts=parts)).ok

    @pytest.mark.parametrize("edit", [
        {"kind": "mixed"}, {"d": 1}, {"d": 0}, {"d": 4},
        {"literature_range": False}])
    def test_relabelled_spread_fails(self, edit):
        report = verify_partition(replace(spread_partition(F2, 4, 2), **edit))
        assert not report.ok
        assert report.uncovered == report.double_covered == ()

    def test_duplicate_part_reports_double_coverage(self):
        p = spread_partition(F2, 2, 1)
        doctored = Partition(F2, 2, 1, "spread",
                             p.parts + (p.parts[0],), True)
        report = verify_partition(doctored)
        assert not report.ok
        assert len(report.double_covered) == 1  # the duplicated line minus 0

    @pytest.mark.parametrize("f,n,k", [(F3, 3, 1), (field_new(3, 2), 2, 1)])
    def test_dropped_subspace_matches_brute_force(self, f, n, k):
        c = cover_finite(f, n, k)
        kept = c.subspaces[1:]
        report = verify_cover(Cover(f, n, k, kept, c.provenance))
        # every vector in increasing index order: the first entry fastest
        vectors = [v[::-1] for v in product(range(f.q), repeat=n)][1:]
        want = tuple(v for v in vectors
                     if not any(contains(s, v) for s in kept))
        assert want and report.uncovered == want
        assert not report.ok and report.checked == f.q**n - 1

    def test_report_json_shape(self):
        doc = verify_cover(lines_cover(F2)).to_json()
        assert set(doc) == {"ok", "uncovered", "double_covered", "checked"}
        assert doc["ok"] is True and doc["checked"] == 3

    @pytest.mark.parametrize("p,n,d,uncovered,doubled", [
        (3, 2, 1, ((2, 1), (1, 2)), ((1, 0), (2, 0))),
        (2, 4, 2, ((0, 1, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1)),
         ((1, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 1))),
    ])
    def test_doubled_part_is_recounted(self, monkeypatch, p, n, d, uncovered,
                                       doubled):
        # the last part replaced by a copy of the first: the parts still
        # hold q^n - 1 nonzero vectors, but fewer are marked, so the hits
        # are counted a second time to list the doubly covered ones
        spread = spread_partition(field_new(p, 1), n, d)
        passes = []
        index_chunks = oracle._index_chunks

        def record(*args):
            passes.append(args)
            return index_chunks(*args)

        monkeypatch.setattr(oracle, "_index_chunks", record)
        report = verify_partition(
            replace(spread, parts=spread.parts[:-1] + spread.parts[:1]))
        assert len(passes) == 2
        assert report.uncovered == uncovered
        assert report.double_covered == doubled
        assert not report.ok and report.checked == p**n - 1


def index_chunk_families():
    """(field, n, members, lane bytes): lanes of one, two and four bytes,
    and entries of one and two bytes (GF(257), GF(1021))."""
    rng = random.Random(31)
    f4, f9 = field_new(2, 2), field_new(3, 2)
    yield F2, 5, cover_finite(F2, 5, 2).subspaces, 1
    yield F3, 4, spread_partition(F3, 4, 2).parts, 1
    yield f4, 3, mixed_partition(f4, 3, 1).parts, 1
    yield F2, 10, cover_finite(F2, 10, 7).subspaces, 2
    yield f9, 3, cover_finite(f9, 3, 1).subspaces, 2
    for p in (257, 1021):
        f = field_new(p, 1)
        yield f, 2, spread_partition(f, 2, 1).parts[:40], 4
    yield F2, 17, tuple(subspace_from_generators(F2, 17, [
        [rng.randrange(2) for _ in range(17)] for _ in range(dim)])
        for dim in (1, 3, 5, 6)), 4


@pytest.mark.parametrize("f,n,members,lane_bytes", index_chunk_families())
def test_index_chunks_are_the_weighted_sums(monkeypatch, f, n, members,
                                            lane_bytes):
    # chunks of 7 vectors split inside members of q^dim vectors
    monkeypatch.setattr(oracle, "INDEX_CHUNK", 7)
    chunks = list(oracle._index_chunks(f, n, members, f.q**n))
    want = [sum(v_i * f.q**i for i, v_i in enumerate(v))
            for s in members for v in span_tuples(f, s.basis, n)]
    assert [len(c) for c in chunks[:-1]] == [7] * (len(chunks) - 1)
    assert list(chain.from_iterable(chunks)) == want
    assert {c.itemsize for c in chunks} == {lane_bytes}


@cache
def reference_indices(s):
    """The index of every nonzero linear combination of the member's basis
    (the first entry fastest), built once per member for the module."""
    weights = [s.field.q**j for j in range(s.n)]
    return tuple(sum(map(mul, linear_combination(s.field, c, s.basis),
                         weights))
                 for c in product(range(s.field.q), repeat=s.dim) if any(c))


def reference_violations(f, n, members):
    """The uncovered and the doubly covered nonzero vectors, by a saturating
    count over every linear combination of each member's basis, listed in
    index order (the first entry fastest)."""
    q = f.q
    weights = [q**j for j in range(n)]
    hits = [0] * q**n
    for s in members:
        for i in reference_indices(s):
            hits[i] = min(hits[i] + 1, 2)

    def vectors(count):
        return tuple(tuple(i // w % q for w in weights)
                     for i in range(1, q**n) if hits[i] == count)

    return vectors(0), vectors(2)


# (p, m, ambient dimensions): GF(257) has list columns and two-byte entries
FAMILY_SPACES = [(2, 1, [2, 3, 4, 5, 6]), (3, 1, [2, 3, 4]), (2, 2, [2, 3]),
                 (3, 2, [2, 3]), (257, 1, [2])]


@cache
def built_family(build, f, n, k):
    """``build(f, n, k)``, built once for the module: the edits below make
    new member tuples and leave the family as built."""
    return build(f, n, k)


@st.composite
def edited_families(draw):
    """A cover or partition with one member dropped, duplicated or replaced
    by another subspace of the same dimension, or left as built."""
    p, m, dims = draw(st.sampled_from(FAMILY_SPACES))
    f, n = field_new(p, m), draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(["cover", "spread", "mixed"]))
    if kind == "cover":
        family = built_family(cover_finite, f, n, draw(st.integers(1, n - 1)))
        members = family.subspaces
    else:
        d = draw(st.sampled_from([d for d in range(1, n) if n % d == 0]
                                 if kind == "spread" else
                                 list(range(1, n // 2 + 1))))
        build = spread_partition if kind == "spread" else mixed_partition
        family = built_family(build, f, n, d)
        members = family.parts
    edit = draw(st.sampled_from(["none", "drop", "duplicate", "replace"]))
    i = draw(st.integers(0, len(members) - 1))
    if edit == "drop":
        members = members[:i] + members[i + 1:]
    elif edit == "duplicate":
        members += (members[i],)
    elif edit == "replace":
        rng = draw(st.randoms(use_true_random=False))
        other = members[i]
        while other in (members[i], zero_subspace(f, n)) or \
                other.dim != members[i].dim:
            other = subspace_from_generators(f, n, [
                [rng.randrange(f.q) for _ in range(n)]
                for _ in range(members[i].dim)])
        members = members[:i] + (other,) + members[i + 1:]
    key = "subspaces" if kind == "cover" else "parts"
    return replace(family, **{key: members}), edit


@settings(max_examples=30, deadline=None)
@given(edited_families())
def test_verifiers_agree_with_a_saturating_count(case):
    family, edit = case
    f, n = family.field, family.n
    if isinstance(family, Cover):
        report = verify_cover(family)
        uncovered, _ = reference_violations(f, n, family.subspaces)
        doubled = ()
        ok = not uncovered and follows_plan(family)
    else:
        report = verify_partition(family)
        uncovered, doubled = reference_violations(f, n, family.parts)
        ok = not uncovered and not doubled and follows_kind(family)
        if edit == "replace":
            # the members' nonzero vectors still number q^n - 1, so only
            # the marks show the doubly covered vectors
            assert sum(f.q**s.dim - 1 for s in family.parts) == f.q**n - 1
            assert uncovered and doubled
    assert report.uncovered == uncovered
    assert report.double_covered == doubled
    assert report.ok == ok
    assert report.checked == f.q**n - 1


MASK_SPACES = [
    (F2, 4), (F3, 3), (field_new(2, 2), 3), (field_new(5, 1), 3),
    (F2, 5), (field_new(7, 1), 3), (field_new(2, 3), 3), (field_new(3, 2), 3),
    # fields with no byte sum: above q = 256 a line's table is a span of
    # list columns; GF(131) and GF(3^4) read theirs off the byte tables
    (field_new(257, 1), 2), (field_new(131, 1), 2), (field_new(3, 4), 2),
]


@pytest.mark.parametrize("f,n,d", [
    pytest.param(f, n, d, id=f"{d}-f{i}-{n}")
    for i, (f, n) in enumerate(MASK_SPACES) for d in range(1, n)
])
def test_point_mask_matches_membership(f, n, d):
    pts = projective_points(f, n)
    subs = enumerate_subspaces(f, n, d)
    masks, covering = _point_masks(f, n, subs)
    for s, mask in zip(subs, masks):
        want = sum(1 << i for i, pt in enumerate(pts) if contains(s, pt))
        assert mask == want
    assert list(map(list, covering)) == [
        [i for i, m in enumerate(masks) if m >> j & 1]
        for j in range(len(pts))]
    # GL(n, q) is transitive on points, so each lies in equally many
    # candidates; the search's branching rule relies on it
    assert {len(c) for c in covering} == {gaussian_binomial(n - 1, d - 1, f.q)}


def test_point_masks_of_gf1021_lines():
    # each line of GF(1021)^2 is one point: its own normalised row
    f = field_new(1021, 1)
    subs = enumerate_subspaces(f, 2, 1)
    index = {pt: i for i, pt in enumerate(projective_points(f, 2))}
    masks, covering = _point_masks(f, 2, subs)
    want = [index[s.basis[0]] for s in subs]
    assert masks == [1 << i for i in want]
    assert list(map(list, covering)) == [[want.index(j)] for j in range(1022)]


@pytest.mark.parametrize("f,n,d", [
    (F2, 5, 3), (F3, 4, 2), (field_new(2, 2), 3, 2), (field_new(257, 1), 2, 1),
    (field_new(1021, 1), 2, 1), (field_new(131, 1), 3, 2)])
def test_point_masks_enumerate_only_projective_values(f, n, d, monkeypatch):
    # a column's table holds (q^d - 1)/(q - 1) values, one per projective
    # point of F^d; the span enumerator may yield no more than that for
    # each distinct column, and is called once per distinct column
    monkeypatch.setenv("SUBCOVER_MAX_Q_POW", str(2**22))
    yielded = []

    def counted(*args):
        yielded.append(0)
        for v in oracle_span_tuples(*args):
            yielded[-1] += 1
            yield v

    oracle_span_tuples = oracle.span_tuples
    monkeypatch.setattr(oracle, "span_tuples", counted)
    if gaussian_binomial(n, d, f.q) > 2000:
        rng = random.Random(f.q)
        subs = [subspace_from_generators(f, n, [
            tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(d)])
            for _ in range(40)]
        subs = [s for s in subs if s.dim == d]
    else:
        subs = enumerate_subspaces(f, n, d)
    masks, _ = _point_masks(f, n, subs)
    columns = {u for s in subs for u in zip(*s.basis)}
    assert len(yielded) == len(columns)
    assert max(yielded) <= (f.q**d - 1) // (f.q - 1)
    pts = projective_points(f, n)
    for s, mask in zip(subs[:3], masks):
        assert mask == sum(1 << i for i, pt in enumerate(pts)
                           if contains(s, pt))


@pytest.mark.parametrize("p,m,n", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_point_index_is_position_in_projective_points(p, m, n):
    f = field_new(p, m)
    weight, shift = _index_weights(f.q, n)
    for pos, pt in enumerate(projective_points(f, n)):
        lead = next(i for i, x in enumerate(pt) if x)
        assert shift[lead] + sum(w * x for w, x in zip(weight, pt)) == pos


def test_point_masks_with_lanes_wider_than_16_bits():
    # GF(2)^17 has 131071 points, so a point index needs 17 bits; points
    # with leading index 0 sit below 2^16, all others above
    n = 17
    rng = random.Random(17)
    gens = [[(1,) + (0,) * 16], [(0,) * 16 + (1,)], [(0,) * 16 + (1,), (1,) * 17]]
    gens += [[tuple(rng.randrange(2) for _ in range(n))] for _ in range(4)]
    gens += [[tuple(rng.randrange(2) for _ in range(n)) for _ in range(2)]]
    subs = [subspace_from_generators(F2, n, g) for g in gens]
    pts = projective_points(F2, n)
    masks, covering = _point_masks(F2, n, subs)
    assert len(covering) == len(pts) == 2**n - 1
    for i, (s, mask) in enumerate(zip(subs, masks)):
        on = [j for j, b in enumerate(reversed(bin(mask))) if b == "1"]
        assert len(on) == 2**s.dim - 1
        assert all(contains(s, pts[j]) and i in covering[j] for j in on)
    assert max(masks).bit_length() > 2**16


@pytest.mark.parametrize("p,m", [(3, 4), (131, 1)])
def test_point_masks_of_planes_with_no_byte_sum(p, m, monkeypatch):
    # a plane's tables are spans of two one-entry rows, which these fields
    # build as list columns; their full candidate sets exceed MAX_MASK_BITS
    # and GF(131)^3 the default size guard
    monkeypatch.setenv("SUBCOVER_MAX_Q_POW", str(2**22))
    f, n = field_new(p, m), 3
    rng = random.Random(f.q)
    subs = [subspace_from_generators(f, n, [
        tuple(rng.randrange(f.q) for _ in range(n)) for _ in range(2)])
        for _ in range(3)]
    subs.append(subspace_from_generators(f, n, [(0, 1, 0), (0, 0, 1)]))
    pts = projective_points(f, n)
    masks, covering = _point_masks(f, n, subs)
    for i, (s, mask) in enumerate(zip(subs, masks)):
        assert s.dim == 2
        want = [j for j, pt in enumerate(pts) if contains(s, pt)]
        assert mask == sum(1 << j for j in want)
        assert all(i in covering[j] for j in want)


class TestMinCoverSize:
    def test_lines_anchor_values(self):
        assert min_cover_size(F2, 2, 1) == 3
        assert min_cover_size(F3, 2, 1) == 4

    def test_planes_of_f2_fourth(self):
        assert min_cover_size(F2, 4, 2) == 5

    def test_matches_formula_on_grid(self):
        for f, q in ((F2, 2), (F3, 3)):
            for n in range(2, 5):
                for k in range(1, n):
                    got = min_cover_size(f, n, k)
                    want = minimal_cover_count(q, n, k)
                    assert got >= want  # the counting lower bound
                    assert got == want  # sharpness

    def test_beyond_acceptance_grid(self):
        assert min_cover_size(F2, 5, 1) == 3
        assert min_cover_size(F2, 5, 4) == 31
        assert min_cover_size(F2, 6, 3) == 9

    def test_deepens_past_an_unattained_counting_bound(self, monkeypatch):
        # no real instance reaches a second depth, so fake the incidence:
        # six 3-sets {i, i+1, i+3} mod 6 of six points, each point in three
        # of them and no two disjoint, so the counting bound 2 is not
        # attained and the minimum is 3
        sets = [{i, (i + 1) % 6, (i + 3) % 6} for i in range(6)]
        masks = [sum(1 << j for j in s) for s in sets]
        covering = [[i for i, s in enumerate(sets) if j in s]
                    for j in range(6)]
        monkeypatch.setattr(oracle, "_point_masks",
                            lambda f, n, cands: (masks, covering))
        assert min_cover_size(F2, 3, 1) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            min_cover_size(F2, 3, 3)

    def test_enumerates_candidates_once_through_the_module(self, monkeypatch):
        # the benchmark counts candidates by wrapping the module global
        calls = []
        enumerate_all = oracle.enumerate_subspaces
        monkeypatch.setattr(oracle, "enumerate_subspaces",
                            lambda *a, **kw: calls.append(a) or
                            enumerate_all(*a, **kw))
        assert min_cover_size(F2, 4, 2) == 5
        assert calls == [(F2, 4, 2)]


class TestProjectiveReductionSoundness:
    def test_vector_cover_iff_point_cover(self):
        # dual implementations: exhaustive vector membership vs projective
        # representative membership must agree on random families
        rng = random.Random(47)
        subs = enumerate_subspaces(F3, 2, 1)
        pts = projective_points(F3, 2)
        all_vectors = [v for v in product(range(3), repeat=2) if any(v)]
        for _ in range(40):
            family = rng.sample(subs, rng.randrange(1, len(subs) + 1))
            covers_vectors = all(
                any(contains(s, v) for s in family) for v in all_vectors
            )
            covers_points = all(
                any(contains(s, p) for s in family) for p in pts
            )
            assert covers_vectors == covers_points
