"""Brute-force verification and minimality search.

Covers and partitions are checked by enumerating every vector of every
claimed subspace from its basis; minimal cover sizes are recomputed by an
exact branch-and-bound set-cover search over projective points, pruned by
the counting bound ceil(remaining points / points per subspace).

Shared with the construction code: the ``Subspace`` type and the field
arithmetic.  The constructions do not call the span enumerator
``linalg.span_tuples`` (with ``linalg.vec_add``) that lists every vector
here; they read their subfields off the field's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import mul

from .bounds import DEFAULT_MAX_SUBSPACES, check_enumeration_size
from .covers import Cover, minimal_cover_count
from .gf import FieldDescriptor
from .linalg import Row, Subspace, span_tuples, vec_add
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
    its provenance's is not ``ok`` even with both lists empty."""

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
        for v in span_tuples(f, s.basis, n):
            i = sum(map(mul, v, weights))
            if hits[i] < 2:
                hits[i] += 1
    return hits


def verify_cover(c: Cover) -> VerificationReport:
    """Check that every nonzero vector of F^n lies in at least one cover
    subspace, by enumerating each subspace from its basis, and that the
    cover has the count its provenance steps add up to."""
    n, q = c.n, c.field.q
    hits = _hit_counts(c.field, n, c.subspaces, "cover", "subspace")
    uncovered = tuple(
        _index_vector(i, q, n) for i in range(1, q**n) if not hits[i]
    )
    ok = not uncovered and c.count == c.provenance.predicted_count
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


def _subspace_point_mask(s: Subspace, point_index: dict[Row, int]) -> int:
    """Bitmask of the projective points lying in the subspace.

    With the basis in RREF, the first nonzero entry of sum(c_j * row_j) is
    the first nonzero c_j, so each point is listed once, already scaled, as
    row_i + span(rows after i).
    """
    f, rows = s.field, s.basis
    mask = 0
    for i, row in enumerate(rows):
        for v in span_tuples(f, rows[i + 1:], s.n):
            mask |= 1 << point_index[vec_add(f, row, v)]
    return mask


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
    the counting bound ceil(remaining / points_per_subspace).  The search
    admits solutions up to ``upper_hint`` (default: the closed-form count);
    if no cover that small exists it reruns against a greedy upper bound,
    so the result never presupposes the hint is attainable.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    q = f.q
    check_enumeration_size(q, n, f"minimality search over GF({q})^{n}")
    pts = projective_points(f, n)
    point_index = {pt: i for i, pt in enumerate(pts)}
    npoints = len(pts)
    full = (1 << npoints) - 1
    cands = enumerate_subspaces(f, n, n - k, max_count=max_subspaces)
    masks = [_subspace_point_mask(s, point_index) for s in cands]
    pts_per = (q ** (n - k) - 1) // (q - 1)

    # the candidates through each point, and how many, for the branching
    covering: list[list[int]] = [[] for _ in range(npoints)]
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            covering[low.bit_length() - 1].append(i)
            m ^= low
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

    hint = upper_hint if upper_hint is not None else minimal_cover_count(q, n, k)
    best = search(hint)
    if best is None:
        best = search(_greedy_cover_size(masks, full))
    if best is None:
        raise AssertionError("no cover found below the greedy bound")
    return best
