"""Brute-force verification and minimality search.

Covers and partitions are checked by enumerating every vector of every
claimed subspace from its basis.  Minimal cover sizes are recomputed by an
exact, iterative set-cover search over projective points that deepens from
the counting bound ceil(points / points per subspace), prunes with
ceil(remaining points / points per subspace) and branches on the lowest
uncovered point: GL(n, q) is transitive on points, so every point lies in
equally many candidates and the lowest one is as constrained as any.  The
candidates are built per pivot tuple, as the product of each RREF row's
possible rows.  The points are the lines of F^n, each with its first
nonzero coordinate 1, ordered by leading index, then suffix; a point's
position is linear in its coordinates, so a candidate's point indices are
a sum of per-column tables held as packed lanes of one int, and each table
holds only the values of the projective points (see ``_point_masks``).

Shared with the construction code: the ``Subspace`` type, a named tuple
built through its constructor, and the field descriptor.  Every
vector enumerated here comes out of ``linalg.span_tuples``: while q <= 256
it translates a row's ``bytes`` by the field's ``muls`` tables (see
``byte_tables``) and, where a byte holds the sum of two entries, adds
whole vectors in big ints (see ``linalg._vector_sums``); other fields, all
with q >= 81, call ``add`` and ``mul`` once per entry.  The verifier packs
the vectors into ``bytes`` and indexes them in one lane level: each
coordinate's entries, widened into the lanes of one int, are added with
weight q**i (``_index_chunks``).  The search builds its point-index tables
from the enumerator and ``add``; neither calls field arithmetic per vector
or candidate.  The constructions call neither the enumerator nor the
search, but read the same tables: their subfields come off the
log/antilog tables, and where q <= 256 ``linalg._lines`` scales each
constructed line whose lead is not 1 by the ``muls`` translate that
``span_tuples`` reads, so one wrong ``muls`` entry can shape both a line
and the vectors that check it (a document's lines are read as written,
led by 1).  The counting bound is computed here, not
taken from the constructions' closed form; only ``covers.follows_plan``
reads ``cover_plan``, and only ``partitions.follows_kind`` reads the
constructions' part counts.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, islice, product, repeat
from operator import attrgetter, getitem
from sys import byteorder
from typing import Iterator, Sequence

from .bounds import MAX_MASK_BITS, MAX_SUBSPACES, check_enumeration_size
from .covers import Cover, follows_plan
from .gf import FieldDescriptor, base_digits
from .linalg import Row, Subspace, span_tuples
from .partitions import Partition, follows_kind


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n, exact."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    r = 1
    for i in range(1, d + 1):
        r = r * (q ** (n - d + i) - 1) // (q**i - 1)
    return r


def enumerate_subspaces(f: FieldDescriptor, n: int, d: int
                        ) -> tuple[Subspace, ...]:
    """All d-dimensional subspaces of F^n, each exactly once, by direct
    enumeration of RREF matrices: pivot columns in lexicographic order,
    then the free entries in product order, row by row (the first row
    slowest).  In RREF a row's free entries are its own, so each row's
    q^(free cells) possible rows are built once per pivot tuple and the
    candidates are their product.  All of them are built in one ``map``
    over the ``Subspace`` constructor."""
    count = gaussian_binomial(n, d, f.q)
    if count > MAX_SUBSPACES:
        raise ValueError(
            f"{count} subspaces exceed the search bound {MAX_SUBSPACES}"
        )
    bases, pivot_tuples = [], []
    for pivots in combinations(range(n), d):
        rows = []
        for p in pivots:
            free = [c for c in range(p + 1, n) if c not in pivots]
            row = [0] * n
            row[p] = 1
            choices = []
            for values in product(range(f.q), repeat=len(free)):
                for c, v in zip(free, values):
                    row[c] = v
                choices.append(tuple(row))
            rows.append(choices)
        bases += product(*rows)
        pivot_tuples += repeat(pivots, len(bases) - len(pivot_tuples))
    out = tuple(map(Subspace, repeat(f), repeat(n), bases, pivot_tuples))
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


def _typecode(top: int) -> str:
    """The smallest ``array`` typecode whose items hold 0..top."""
    return next(c for c in "BHIQ" if 8 * array(c).itemsize >= top.bit_length())


# The most vectors ``_violations`` packs and indexes at once.
INDEX_CHUNK = 1024


def _index_chunks(f: FieldDescriptor, n: int, members,
                  size: int) -> Iterator[array]:
    """The index sum(v_i * q**i) of every vector of every member, chunk by
    chunk as an ``array``.  The members' spans are read as one stream, at
    most INDEX_CHUNK vectors a chunk, and a chunk's entries are packed in
    order, w bytes each (w = 1 while q <= 256), so coordinate i is every
    n-th entry.  Each coordinate's entries are widened into fixed-width
    lanes that hold size - 1, read as one int, weighted by q**i and added
    to the chunk's sum; no lane ever carries into the next."""
    q = f.q
    entry, lane = _typecode(q - 1), _typecode(size - 1)
    width, lane_bytes = array(entry).itemsize, array(lane).itemsize
    stride = n * width  # the bytes of one packed vector
    # where an entry's low byte sits in its lane, in native order
    low = 0 if byteorder == "little" else lane_bytes - width
    vecs = chain.from_iterable(map(span_tuples, repeat(f), map(
        attrgetter("basis"), members), repeat(n)))
    # a chunk's entries as bytes, w to an entry in native order
    pack = bytearray if width == 1 else partial(array, entry)
    while packed := bytearray(pack(chain.from_iterable(
            islice(vecs, INDEX_CHUNK)))):
        lanes = bytearray(len(packed) // stride * lane_bytes)
        total = 0
        for i in range(n):
            for j in range(width):
                lanes[low + j::lane_bytes] = packed[i * width + j::stride]
            total += int.from_bytes(lanes, byteorder) * q**i
        yield array(lane, total.to_bytes(len(lanes), byteorder))


def _violations(f: FieldDescriptor, n: int, members, what: str,
                exact: bool) -> tuple[tuple[Row, ...], ...]:
    """The nonzero vectors no member holds and, when ``exact``, those more
    than one member holds, in increasing order.  Each index of
    ``_index_chunks`` marks a hit at C speed (hits[0], the zero vector, is
    not read).  Some nonzero vector lies in two members iff the members'
    nonzero vectors, the sum of q**dim - 1, outnumber the marked nonzero
    indices; only then, and only when ``exact``, are the hits counted
    again, one vector at a time, saturating at 2."""
    q = f.q
    task = f"verifying a {what} of GF({q})^{n}"
    size = check_enumeration_size(q, n, task)
    try:
        hits = bytearray(size)
    except (MemoryError, OverflowError) as exc:  # a raised size guard
        raise ValueError(f"{task} cannot allocate {size} bytes") from exc
    deque(map(hits.__setitem__, chain.from_iterable(
        _index_chunks(f, n, members, size)), repeat(1)), maxlen=0)
    if exact and sum(q**s.dim - 1 for s in members) > hits.count(1, 1):
        hits[:] = bytes(size)
        for i in chain.from_iterable(_index_chunks(f, n, members, size)):
            if hits[i] < 2:
                hits[i] += 1

    def where(count: int):
        i = hits.find(count, 1)
        while i >= 0:
            yield base_digits(i, q, n)
            i = hits.find(count, i + 1)

    return tuple(where(0)), tuple(where(2)) if exact else ()


def verify_cover(c: Cover) -> VerificationReport:
    """Check that every nonzero vector of F^n lies in at least one cover
    subspace, by enumerating each subspace from its basis, and that the
    cover's count and provenance follow its plan (``covers.follows_plan``)."""
    uncovered, _ = _violations(c.field, c.n, c.subspaces, "cover",
                               exact=False)
    ok = not uncovered and follows_plan(c)
    return VerificationReport(ok, uncovered, (), c.field.q**c.n - 1)


def verify_partition(p: Partition) -> VerificationReport:
    """Check that every nonzero vector lies in exactly one part (which also
    certifies that all pairwise intersections are trivial), and that the
    part dimensions and ``literature_range`` are those of its kind
    (``partitions.follows_kind``)."""
    uncovered, doubled = _violations(p.field, p.n, p.parts, "partition",
                                     exact=True)
    ok = not uncovered and not doubled and follows_kind(p)
    return VerificationReport(ok, uncovered, doubled, p.field.q**p.n - 1)


def _index_weights(q: int, n: int) -> tuple[list[int], list[int]]:
    """``(weight, shift)`` such that a normalised vector v of F^n with
    leading index L sits at ``shift[L] + sum(weight[c] * v[c])`` in the
    point order (see the module docstring): the points with an earlier
    leading index come first, then v's suffix reads as a base-q numeral
    (v[L] = 1 adds weight[L], which ``shift[L]`` takes back)."""
    weight = [q ** (n - 1 - c) for c in range(n)]
    shift = [sum(weight[:lead]) - weight[lead] for lead in range(n)]
    return weight, shift


# The most point-candidate incidences ``_point_masks`` holds in lists.
COVERING_BATCH = 1 << 20


def _point_masks(f: FieldDescriptor, n: int, cands: Sequence[Subspace]
                 ) -> tuple[list[int], list[array]]:
    """The bitmask of the projective points in each positive-dimensional
    candidate, and the candidates through each point in increasing order,
    one ``array`` per point.

    With the basis in RREF, the first nonzero entry of sum(c_j * row_j) is
    the first nonzero c_j, so a d-dimensional candidate's points are listed
    once each, already scaled, by the projective points c of F^d.  A
    point's coordinate col is then <c, u_col>, u_col the basis column, and
    by ``_index_weights`` its index is linear in its coordinates.  The
    values <c, u> over the projective c, and no others, come from one
    ``linalg.span_tuples`` call per distinct column u, the span of u's
    entries after the first as one-entry rows (``table``), held as the
    fixed-width lanes of one int and scaled by the column's weight once
    per column index, so a candidate's point indices cost one sum of
    packed ints, one per column.
    The packing is plain integer arithmetic: a lane holding a negative
    shift borrows from the next until the pivot columns are added, and the
    lane width is chosen from the point count, so every finished lane
    holds its point index in [0, npoints) exactly.  The lanes of all
    candidates are decoded together and split into masks and ``covering``
    lists in one pass each.
    """
    q = f.q
    npoints = (q**n - 1) // (q - 1)
    code = _typecode(npoints - 1)
    lane_bytes = array(code).itemsize
    weight, shift = _index_weights(q, n)
    tables: dict[Row, int] = {}

    def table(u: Row) -> int:
        # <c, u> for the projective c of F^d, d = len(u), by leading index
        # i: u_i plus <c', u[i+1:]> for every c' in product order.  For i
        # = 0 that is u_0 plus each value of the span of u[1:]; for i > 0
        # it is that span's own slice [q^j, 2 q^j), j = d-1-i.
        if u not in tables:
            rest = list(chain.from_iterable(span_tuples(f, list(zip(u[1:])),
                                                        1)))
            lanes = array(code, map(f.add, repeat(u[0]), rest))
            lanes.extend(chain.from_iterable(
                rest[q**j:2 * q**j] for j in reversed(range(len(u) - 1))))
            tables[u] = int.from_bytes(lanes.tobytes(), byteorder)
        return tables[u]

    # weight[col] * table(u) for every column u met at index col
    scaled: list[dict[Row, int]] = [{} for _ in range(n)]
    starts: dict[tuple[int, ...], tuple[int, int]] = {}
    accs, counts = [], []
    for s in cands:
        if s.pivots not in starts:
            # each lane's shift, by the leading index of its point
            leads = [p for i, p in enumerate(s.pivots)
                     for _ in range(q**(len(s.pivots) - 1 - i))]
            starts[s.pivots] = (sum(shift[p] << (8 * lane_bytes * j)
                                    for j, p in enumerate(leads)), len(leads))
        start, count = starts[s.pivots]
        try:
            accs.append(sum(map(getitem, scaled, zip(*s.basis)), start))
        except KeyError:  # a column not met before at its index
            for col, u in enumerate(zip(*s.basis)):
                scaled[col][u] = weight[col] * table(u)
            accs.append(sum(map(getitem, scaled, zip(*s.basis)), start))
        counts.append(count)
    # Decode every candidate's lanes into one array, then split them by
    # candidate.  The column tables and the packed ints are each about as
    # large as the array, so they go first.
    del scaled, tables
    lanes = array(code)
    deque(map(lanes.frombytes, map(int.to_bytes, accs, map(
        lane_bytes.__mul__, counts), repeat(byteorder))), maxlen=0)
    del accs
    bit = [0] * npoints
    for j in set(lanes):
        bit[j] = 1 << j
    bits = map(bit.__getitem__, lanes)
    masks = list(map(sum, map(islice, repeat(bits), counts)))
    # Each point's candidates are kept in an array, a few bytes each where
    # a list takes 8, but gathered as lists, which append faster, a batch
    # of incidences at a time.  The map stops at the end of the batch's
    # lanes before it takes the next owner.
    covering = [array(_typecode(len(cands) - 1)) for _ in range(npoints)]
    owners = chain.from_iterable(map(repeat, range(len(cands)), counts))
    for start in range(0, len(lanes), COVERING_BATCH):
        batch: list[list[int]] = [[] for _ in range(npoints)]
        deque(map(list.append, map(batch.__getitem__, lanes[
            start:start + COVERING_BATCH]), owners), maxlen=0)
        deque(map(array.fromlist, covering, batch), maxlen=0)
    return masks, covering


def min_cover_size(f: FieldDescriptor, n: int, k: int) -> int:
    """Exact minimum number of codimension-k subspaces covering F^n.

    Deepens from the counting bound L = ceil(points / points_per_subspace),
    a lower bound on every cover that equals the closed form: asks whether
    L subspaces suffice, then L+1, ..., and returns the first size that
    does, so the result never presupposes that L is attained.  Each
    question is a depth-first search that branches on the lowest uncovered
    point, prunes with ceil(remaining / points_per_subspace) and stops at
    the first full cover.  GL(n, q) permutes the points transitively and
    maps candidates to candidates, so every point lies in the same number
    of candidates, gaussian_binomial(n-1, d-1, q); the lowest uncovered
    point is therefore also one in the fewest candidates.  Children are
    tried by most new points, then lowest index.  The search is iterative,
    with one frame of pending children per level, so a cover of one
    subspace per point (k = n-1) does not hit Python's recursion limit.
    Candidates come from ``enumerate_subspaces``; their point bitmasks, and
    the candidates through each point, from ``_point_masks``.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    q = f.q
    check_enumeration_size(q, n, f"minimality search over GF({q})^{n}")
    bits = gaussian_binomial(n, n - k, q) * gaussian_binomial(n, 1, q)
    if bits > MAX_MASK_BITS:
        raise ValueError(f"minimality search over GF({q})^{n} needs {bits} "
                         f"point-mask bits, over the bound {MAX_MASK_BITS}")
    cands = enumerate_subspaces(f, n, n - k)
    masks, covering = _point_masks(f, n, cands)
    npoints = len(covering)
    full = (1 << npoints) - 1
    pts_per = (q ** (n - k) - 1) // (q - 1)
    if {len(c) for c in covering} != {gaussian_binomial(n - 1, n - k - 1, q)}:
        raise AssertionError("points lie in unequal numbers of candidates")

    def covers_within(limit: int) -> bool:
        # frames[i] yields the covered sets of the pending children of the
        # node at depth i - 1; the root is the only child of frames[0]
        frames = [iter((0,))]
        while frames:
            cov = next(frames[-1], None)
            if cov is None:
                frames.pop()
                continue
            if cov == full:
                return True
            chosen = len(frames) - 1
            remaining = npoints - cov.bit_count()
            if chosen + -(-remaining // pts_per) > limit:
                continue
            uncov = ~cov
            # the lowest uncovered point is the lowest zero bit of cov
            branch_pt = (uncov & (cov + 1)).bit_length() - 1
            order = sorted(
                covering[branch_pt],
                key=lambda i: (-(masks[i] & uncov).bit_count(), i),
            )
            frames.append(map(cov.__or__, map(masks.__getitem__, order)))
        return False

    # every point lies in a candidate, so this stops by limit = npoints
    limit = -(-npoints // pts_per)
    while not covers_within(limit):
        limit += 1
    return limit
