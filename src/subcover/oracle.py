"""Brute-force verification and minimality search.

Covers and partitions are checked by enumerating every vector of every
claimed subspace from its basis; minimal cover sizes are recomputed by an
exact branch-and-bound set-cover search over projective points, pruned by
the counting bound ceil(remaining points / points per subspace).  The
search's point masks are not enumerated vector by vector: a point's
position in ``projective_points`` is linear in its coordinates, so each
candidate's point indices are a sum of per-column tables held as packed
lanes of one int (see ``_point_masks``).

Shared with the construction code: the ``Subspace`` type and the field
descriptor, whose ``add`` and ``mul`` the search calls and whose
``byte_tables`` (one ``bytes.translate`` table per element for addition
and for multiplication, q <= 256) the span enumerator
``linalg.span_tuples`` reads to list every vector here.  The constructions
do not call ``span_tuples``; they read their subfields off the field's
log/antilog tables.  The counting bound is computed here, not taken from
the constructions' closed form; only the check that a cover's provenance
is its plan (``covers.follows_plan``) reads ``cover_plan``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations, product, repeat
from operator import mul
from sys import byteorder

from .bounds import DEFAULT_MAX_SUBSPACES, check_enumeration_size
from .covers import Cover, follows_plan
from .gf import FieldDescriptor
from .linalg import Row, Subspace, span_tuples
from .partitions import Partition


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n, exact."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    r = 1
    for i in range(1, d + 1):
        r = r * (q ** (n - d + i) - 1) // (q**i - 1)
    return r


def projective_points(f: FieldDescriptor, n: int) -> tuple[Row, ...]:
    """Canonical representatives of the lines of F^n: first nonzero
    coordinate scaled to 1, ordered by leading index then suffix."""
    q = f.q
    size = check_enumeration_size(q, n, f"projective points of GF({q})^{n}")
    expected = (size - 1) // (q - 1)
    pts = []
    for lead in range(n):
        for suffix in product(range(q), repeat=n - lead - 1):
            pts.append((0,) * lead + (1,) + suffix)
    if len(pts) != expected:
        raise AssertionError("projective point count mismatch")
    return tuple(pts)


def enumerate_subspaces(f: FieldDescriptor, n: int, d: int,
                        max_count: int = DEFAULT_MAX_SUBSPACES
                        ) -> list[Subspace]:
    """All d-dimensional subspaces of F^n, each exactly once, by direct
    enumeration of RREF matrices (pivot columns, then free entries)."""
    count = gaussian_binomial(n, d, f.q)
    if count > max_count:
        raise ValueError(
            f"{count} subspaces exceed the search bound {max_count}"
        )
    if d == 0:
        return [Subspace(f, n, (), ())]
    out = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        cells = [
            (i, c)
            for i in range(d)
            for c in range(pivots[i] + 1, n)
            if c not in pivot_set
        ]
        template = []
        for i in range(d):
            row = [0] * n
            row[pivots[i]] = 1
            template.append(row)
        for values in product(range(f.q), repeat=len(cells)):
            rows = [list(r) for r in template]
            for (i, c), v in zip(cells, values):
                rows[i][c] = v
            out.append(Subspace(f, n, tuple(tuple(r) for r in rows), pivots))
    if len(out) != count:
        raise AssertionError("subspace enumeration count mismatch")
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Exhaustive check result; ``uncovered`` and ``double_covered`` list
    offending vectors as entry tuples.  A cover whose count differs from
    its provenance's, or whose provenance is not its plan, is not ``ok``
    even with both lists empty."""

    ok: bool
    uncovered: tuple[Row, ...]
    double_covered: tuple[Row, ...]
    checked: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "uncovered": [list(v) for v in self.uncovered],
            "double_covered": [list(v) for v in self.double_covered],
            "checked": self.checked,
        }


def _index_vector(idx: int, q: int, n: int) -> Row:
    out = []
    for _ in range(n):
        idx, r = divmod(idx, q)
        out.append(r)
    return tuple(out)


def _hit_counts(f: FieldDescriptor, n: int, members, what: str,
                member: str) -> bytearray:
    """Hits per vector index over every vector of every member subspace,
    saturating at 2."""
    q = f.q
    hits = bytearray(
        check_enumeration_size(q, n, f"verifying a {what} of GF({q})^{n}"))
    weights = [q**i for i in range(n)]  # a vector's index is sum(v_i * q**i)
    for s in members:
        if s.field != f or s.n != n:
            raise ValueError(f"{what} {member} in wrong ambient space")
        vecs = span_tuples(f, s.basis, n)
        for i in map(sum, map(map, repeat(mul), vecs, repeat(weights))):
            if hits[i] < 2:
                hits[i] += 1
    return hits


def verify_cover(c: Cover) -> VerificationReport:
    """Check that every nonzero vector of F^n lies in at least one cover
    subspace, by enumerating each subspace from its basis, and that the
    cover's count and provenance follow its plan (``covers.follows_plan``)."""
    n, q = c.n, c.field.q
    hits = _hit_counts(c.field, n, c.subspaces, "cover", "subspace")
    uncovered = tuple(
        _index_vector(i, q, n) for i in range(1, q**n) if not hits[i]
    )
    ok = not uncovered and follows_plan(c)
    return VerificationReport(ok, uncovered, (), q**n - 1)


def verify_partition(p: Partition) -> VerificationReport:
    """Check that every nonzero vector lies in exactly one part (which also
    certifies that all pairwise intersections are trivial)."""
    n, q = p.n, p.field.q
    hits = _hit_counts(p.field, n, p.parts, "partition", "part")
    uncovered = []
    doubled = []
    for i in range(1, q**n):
        if hits[i] == 0:
            uncovered.append(_index_vector(i, q, n))
        elif hits[i] > 1:
            doubled.append(_index_vector(i, q, n))
    ok = not uncovered and not doubled
    return VerificationReport(ok, tuple(uncovered), tuple(doubled), q**n - 1)


def _index_weights(q: int, n: int) -> tuple[list[int], list[int]]:
    """``(weight, shift)`` such that a normalised vector v of F^n with
    leading index L sits at ``shift[L] + sum(weight[c] * v[c])`` in
    ``projective_points``: the points with an earlier leading index come
    first, then v's suffix reads as a base-q numeral (v[L] = 1 adds
    weight[L], which ``shift[L]`` takes back)."""
    weight = [q ** (n - 1 - c) for c in range(n)]
    shift = [sum(weight[:lead]) - weight[lead] for lead in range(n)]
    return weight, shift


def _point_masks(f: FieldDescriptor, n: int, cands: list[Subspace]
                 ) -> tuple[list[int], list[list[int]]]:
    """The bitmask of the projective points in each positive-dimensional
    candidate, and the candidates through each point in increasing order.

    With the basis in RREF, the first nonzero entry of sum(c_j * row_j) is
    the first nonzero c_j, so a d-dimensional candidate's points are listed
    once each, already scaled, by the projective points c of F^d.  A
    point's coordinate col is then <c, u_col>, u_col the basis column, and
    by ``_index_weights`` its index is linear in its coordinates.  The
    values <c, u> over all c are built once per distinct column u, as the
    fixed-width lanes of one int, so a candidate's point indices cost one
    multiply-add of packed ints per non-pivot column and one decode.  The
    packing is plain integer arithmetic: a lane holding a negative shift
    borrows from the next until the pivot columns are added, and the lane
    width is chosen from the point count, so every finished lane holds its
    point index in [0, npoints) exactly.
    """
    q = f.q
    add, mul = f.add, f.mul
    npoints = (q**n - 1) // (q - 1)
    code = next(c for c in "BHIQ"
                if 8 * array(c).itemsize >= (npoints - 1).bit_length())
    lane_bytes = array(code).itemsize
    weight, shift = _index_weights(q, n)
    sums: dict[Row, list[int]] = {(): [0]}
    tables: dict[Row, int] = {}

    def dots(w: Row) -> list[int]:
        # <s, w> for every s in F^len(w), in product order
        if w not in sums:
            rest = dots(w[1:])
            sums[w] = [add(m, x) for m in [mul(a, w[0]) for a in range(q)]
                       for x in rest]
        return sums[w]

    def table(u: Row) -> int:
        # the projective c of F^len(u) in order: leading index i, then the
        # suffix s in product order, so <c, u> = u_i + <s, u after i>
        if u not in tables:
            lanes = array(code, [add(u[i], x) for i in range(len(u))
                                 for x in dots(u[i + 1:])])
            tables[u] = int.from_bytes(lanes.tobytes(), byteorder)
        return tables[u]

    def start(pivots: tuple[int, ...]) -> tuple[int, list[int], int]:
        # what every candidate with these pivots shares: each lane's shift
        # and the pivot columns, which are unit vectors
        d = len(pivots)
        leads = [p for i, p in enumerate(pivots) for _ in range(q**(d - 1 - i))]
        acc = sum(shift[p] << (8 * lane_bytes * j) for j, p in enumerate(leads))
        for j, p in enumerate(pivots):
            acc += weight[p] * table(tuple(int(i == j) for i in range(d)))
        free = [c for c in range(pivots[0], n) if c not in pivots]
        return acc, free, lane_bytes * len(leads)

    bit = (1).__lshift__
    starts: dict[tuple[int, ...], tuple[int, list[int], int]] = {}
    masks: list[int] = []
    covering: list[list[int]] = [[] for _ in range(npoints)]
    for i, s in enumerate(cands):
        if s.pivots not in starts:
            starts[s.pivots] = start(s.pivots)
        acc, free, size = starts[s.pivots]
        cols = list(zip(*s.basis))
        for c in free:
            acc += weight[c] * table(cols[c])
        lanes = array(code, acc.to_bytes(size, byteorder))
        masks.append(sum(map(bit, lanes)))
        for j in lanes:
            covering[j].append(i)
    return masks, covering


def _greedy_cover_size(masks: list[int], full: int) -> int:
    covered = 0
    size = 0
    while covered != full:
        best_gain, best_idx = 0, None
        for i, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_idx = gain, i
        if best_idx is None:
            raise AssertionError("candidate subspaces cannot cover the space")
        covered |= masks[best_idx]
        size += 1
    return size


def min_cover_size(
    f: FieldDescriptor,
    n: int,
    k: int,
    upper_hint: int | None = None,
    max_subspaces: int = DEFAULT_MAX_SUBSPACES,
) -> int:
    """Exact minimum number of codimension-k subspaces covering F^n.

    Depth-first branch and bound over projective points: branch on the
    uncovered point contained in the fewest candidate subspaces, prune with
    the counting bound ceil(remaining / points_per_subspace).  Candidates
    come from ``enumerate_subspaces``; their point bitmasks, and the
    candidates through each point, from ``_point_masks``, which reads each
    candidate's point indices off packed per-column tables.  The search
    admits solutions up to ``upper_hint`` (default: the counting bound
    ceil(points / points_per_subspace), which equals the closed form); if
    no cover that small exists it reruns against a greedy upper bound, so
    the result never presupposes the hint is attainable.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    q = f.q
    check_enumeration_size(q, n, f"minimality search over GF({q})^{n}")
    cands = enumerate_subspaces(f, n, n - k, max_count=max_subspaces)
    masks, covering = _point_masks(f, n, cands)
    npoints = len(covering)
    full = (1 << npoints) - 1
    pts_per = (q ** (n - k) - 1) // (q - 1)
    # how many candidates pass through each point, for the branching
    frequency = [len(c) for c in covering]

    def search(limit: int) -> int | None:
        best: int | None = None

        def dfs(cov: int, chosen: int) -> None:
            nonlocal best
            if cov == full:
                if best is None or chosen < best:
                    best = chosen
                return
            cap = (best - 1) if best is not None else limit
            remaining = npoints - cov.bit_count()
            if chosen + -(-remaining // pts_per) > cap:
                return
            branch_pt = None
            branch_freq = None
            rem = full & ~cov
            while rem:
                low = rem & -rem
                j = low.bit_length() - 1
                if branch_freq is None or frequency[j] < branch_freq:
                    branch_freq, branch_pt = frequency[j], j
                rem ^= low
            order = sorted(
                covering[branch_pt],
                key=lambda i: (-(masks[i] & ~cov).bit_count(), i),
            )
            for i in order:
                dfs(cov | masks[i], chosen + 1)

        dfs(0, 0)
        return best

    hint = upper_hint if upper_hint is not None else -(-npoints // pts_per)
    best = search(hint)
    if best is None:
        best = search(_greedy_cover_size(masks, full))
    if best is None:
        raise AssertionError("no cover found below the greedy bound")
    return best
