"""Vectors, matrices and subspaces over GF(q).

Vectors and matrix rows are plain tuples of canonical integer encodings
(see ``gf``); there is no wrapped vector type.  A subspace is always held
in reduced row-echelon form, which makes set equality a plain tuple
comparison and lets subspaces be deduplicated through hashing.

Encodings are checked where they enter: the public entry points (``rref``,
``subspace_from_generators``, ``kernel``, ``subspace_from_rref``,
``contains``, ``project`` and the JSON readers) check every entry of each
input once.  ``contains`` and ``project`` read one reduction of the vector
against a basis, ``_reduce``.  A construction that builds a family of
subspaces checks all of its generator rows in one call of ``_spans``, and
no part is checked again.

Each part shape has one path.  Lines, the most numerous parts the
constructions make, are built in bulk by ``_lines`` wherever they occur:
``_spans`` sends every part of one nonzero row there in one pass and
merges them back in order, and every other part goes through the one
elimination loop, ``_eliminate``.  A valid document of any part size is
read by one reader, ``_family_from_json``, after a few checks over the
whole list: a family of one-row bases led by 1 is built by ``_lines``,
with one encoding check over all its rows, and any other family by
``subspace_from_rref`` part by part.  A list that fails those checks is
read part by part by ``subspaces_from_json``, which names its first bad
document.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, repeat
from operator import indexOf, itemgetter, not_, truth
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .gf import (FieldDescriptor, field_from_json, field_to_json, json_fields,
                 json_int)

Row = tuple[int, ...]


def _valid_encodings(q: int, rows: Sequence[Sequence]) -> bool:
    """Whether every entry is an integer encoding of GF(q): a plain int in
    [0, q), so a bool or a float is not.  The types are read off every
    entry, since a set of the values merges 1, 1.0 and True; then the
    distinct values are range-checked, all at C speed."""
    if not set(map(type, chain(*rows))) <= {int}:
        return False
    values = set(chain(*rows))
    return not values or min(values) >= 0 and max(values) < q


def _check_encodings(q: int, rows: Sequence[Sequence], what: str) -> None:
    """Raise ValueError unless ``_valid_encodings``; only after a failure
    is each row checked alone, to name the first bad one."""
    if _valid_encodings(q, rows):
        return
    if len(rows) > 1:
        for row in rows:
            _check_encodings(q, (row,), what)
    raise ValueError(f"{what} entries must be integer encodings in "
                     f"[0, {q}), got {list(rows[0])!r}")


def rref(f: FieldDescriptor, matrix: Sequence[Sequence[int]]
         ) -> tuple[tuple[Row, ...], int]:
    """Unique reduced row-echelon form of a matrix and its rank.

    The returned matrix has the same shape as the input (zero rows sink to
    the bottom).  Raises ValueError on ragged input or bad encodings.
    """
    rows = list(map(tuple, matrix))
    if not rows:
        return (), 0
    if set(map(len, rows)) != {len(rows[0])}:
        raise ValueError("ragged matrix")
    _check_encodings(f.q, rows, "matrix")
    reduced, pivots = _eliminate(f, rows)
    return reduced, len(pivots)


def _eliminate(f: FieldDescriptor, rows: Sequence[Row]
               ) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """``rref`` of a non-empty list of equal-length tuples whose entries
    the caller has checked, with its pivot columns, reduced column by
    column."""
    rows = list(map(list, rows))
    nrows, ncols = len(rows), len(rows[0])
    sub, mul, inv = f.sub, f.mul, f.inv
    pivots = []
    for col in range(ncols):
        pivot_row = len(pivots)
        for src in range(pivot_row, nrows):
            if rows[src][col]:
                break
        else:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        piv = rows[pivot_row]
        c = piv[col]
        if c != 1:
            piv[col:] = map(mul, repeat(inv(c)), piv[col:])
        for r in range(nrows):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                row = rows[r]
                for j in range(col, ncols):
                    if piv[j]:
                        row[j] = sub(row[j], mul(factor, piv[j]))
        pivots.append(col)
        if len(pivots) == nrows:
            break
    return tuple(map(tuple, rows)), tuple(pivots)


class Subspace(NamedTuple):
    """A subspace of F^n in canonical reduced row-echelon form.

    ``basis`` holds dim-many independent rows, pivots strictly increasing;
    two Subspace values are equal as sets iff they are equal as tuples.
    Build through :func:`subspace_from_generators` or :func:`subspace_from_rref`.
    """

    field: FieldDescriptor
    n: int
    basis: tuple[Row, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.n - len(self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.field!r}^{self.n})"


def subspace_from_generators(f: FieldDescriptor, n: int,
                             vectors: Iterable[Sequence[int]]) -> Subspace:
    """Canonical subspace equal to the span of the generators."""
    return _spans(f, n, [list(map(tuple, vectors))])[0]


def _spans(f: FieldDescriptor, n: int, gens: Sequence[Sequence[Row]]
           ) -> tuple[Subspace, ...]:
    """The span of each list of generator tuples in ``gens``.  All their
    rows are checked first, in one pass: each must have length n and hold
    integer encodings of f, so a construction checks a family at once.
    The parts of one nonzero row are spanned together by ``_lines``, every
    other part by ``_span``, and the two are merged back in order."""
    rows = list(chain(*gens))
    if set(map(len, rows)) - {n}:
        bad = next(row for row in rows if len(row) != n)
        raise ValueError(f"generator has length {len(bad)}, ambient is {n}")
    _check_encodings(f.q, rows, "matrix")
    # a part's lead: its one row's first nonzero entry, 0 for other parts
    leads = [next(filter(None, g[0]), 0) if len(g) == 1 else 0 for g in gens]
    lines = iter(_lines(f, n, list(map(itemgetter(0), compress(gens, leads))),
                        list(filter(None, leads))))
    others = map(_span, repeat(f), repeat(n), compress(gens, map(not_, leads)))
    # each part takes the next span of its side, lines or others
    return tuple(map(next, map([others, lines].__getitem__,
                               map(truth, leads))))


def _lines(f: FieldDescriptor, n: int, rows: Sequence[Sequence[int]],
           leads: Sequence[int]) -> tuple[Subspace, ...]:
    """The span of each nonzero row of length n, whose entries the caller
    has checked, given its lead: the row scaled by the lead's inverse, with
    one ``muls`` translate where q <= 256, and pivot at the lead.  The whole
    family is built in a few ``map`` passes, and its lines share the n
    distinct pivot tuples."""
    # read off the unscaled rows
    pivots = map([(c,) for c in range(n)].__getitem__,
                 map(indexOf, rows, leads))
    if leads.count(1) != len(leads):
        muls = f.byte_tables
        if muls:
            tables = {c: muls[f.inv(c)] for c in set(leads)}
            rows = map(bytes.translate, map(bytes, rows),
                       map(tables.__getitem__, leads))
        else:
            rows = map(map, repeat(f.mul), map(repeat, map(f.inv, leads)),
                       rows)
    return tuple(map(Subspace, repeat(f), repeat(n), zip(map(tuple, rows)),
                     pivots))


def _span(f: FieldDescriptor, n: int, rows: Sequence[Row]) -> Subspace:
    if not rows:
        return Subspace(f, n, (), ())
    reduced, pivots = _eliminate(f, rows)
    return Subspace(f, n, reduced[:len(pivots)], pivots)


def subspace_from_rref(f: FieldDescriptor, n: int,
                       basis: Sequence[Sequence[int]]) -> Subspace:
    """Build a subspace from rows claimed to be in RREF; reject otherwise."""
    rows = tuple(map(tuple, basis))
    if set(map(len, rows)) - {n}:
        raise ValueError("basis row has wrong length")
    _check_encodings(f.q, rows, "basis")
    pivots = []
    for row in rows:
        first = next(filter(None, row), 0)
        if not first:
            raise ValueError("zero row in basis")
        if first != 1:
            raise ValueError("pivot entry is not 1")
        lead = row.index(1)
        if pivots and lead <= pivots[-1]:
            raise ValueError("pivot columns not strictly increasing")
        pivots.append(lead)
    # a later row is 0 before its lead, so only earlier rows can fail
    for i, pc in enumerate(pivots[1:], 1):
        if any(map(itemgetter(pc), rows[:i])):
            raise ValueError("pivot column not cleared")
    return Subspace(f, n, rows, tuple(pivots))


def zero_subspace(f: FieldDescriptor, n: int) -> Subspace:
    return Subspace(f, n, (), ())


def full_subspace(f: FieldDescriptor, n: int) -> Subspace:
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Subspace(f, n, rows, tuple(range(n)))


def _reduce(s: Subspace, v: Sequence[int]) -> list[int]:
    """v reduced against the canonical basis of s, row by row; a v of the
    wrong length or with bad encodings raises ValueError."""
    if len(v) != s.n:
        raise ValueError("dimension mismatch")
    _check_encodings(s.field.q, (tuple(v),), "vector")
    sub, mul = s.field.sub, s.field.mul
    v = list(v)
    for row, pc in zip(s.basis, s.pivots):
        c = v[pc]
        if c:
            for j in range(pc, s.n):
                if row[j]:
                    v[j] = sub(v[j], mul(c, row[j]))
    return v


def contains(s: Subspace, v: Sequence[int]) -> bool:
    """Membership test: v reduced against the canonical basis is zero."""
    return not any(_reduce(s, v))


def kernel(f: FieldDescriptor, rows: Sequence[Row], n: int) -> Subspace:
    """Null space {x in F^n : row . x = 0 for every row}.  With v0 the
    rows' span, the coordinate map of ``quotient(v0)`` has n - dim v0
    independent rows, each killing v0, so they span it; at full rank it is
    zero."""
    v0 = subspace_from_generators(f, n, rows)
    if v0.dim == n:
        return zero_subspace(f, n)
    return subspace_from_generators(f, n, quotient(v0).coordinate_map)


def annihilator(s: Subspace) -> Subspace:
    """Dual subspace: all functionals (as coordinate vectors) killing s."""
    return kernel(s.field, s.basis, s.n)


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """Intersection, via the null space of the stacked dual systems."""
    if s.field != t.field or s.n != t.n:
        raise ValueError("ambient space mismatch")
    stacked = annihilator(s).basis + annihilator(t).basis
    return kernel(s.field, stacked, s.n)


def subspace_sum(s: Subspace, t: Subspace) -> Subspace:
    """Smallest subspace containing both (span of the concatenated bases)."""
    if s.field != t.field or s.n != t.n:
        raise ValueError("ambient space mismatch")
    return subspace_from_generators(s.field, s.n, s.basis + t.basis)


@dataclass(frozen=True)
class LinearQuotient:
    """The projection F^n -> F^t with a prescribed kernel subspace.

    ``coords`` are the non-pivot columns of the kernel's RREF in increasing
    order; ``coordinate_map`` is the t x n matrix realizing the projection
    (it kills the kernel and restricts to a bijection on the complement
    spanned by the unit vectors at ``coords``).
    """

    kernel: Subspace
    coords: tuple[int, ...]
    coordinate_map: tuple[Row, ...]

    @property
    def field(self) -> FieldDescriptor:
        return self.kernel.field

    @property
    def ambient_dim(self) -> int:
        return self.kernel.n

    @property
    def codim(self) -> int:
        return len(self.coords)


def quotient(v0: Subspace) -> LinearQuotient:
    """Quotient of the ambient space by the proper subspace v0."""
    if v0.dim >= v0.n:
        raise ValueError("kernel must be a proper subspace")
    f = v0.field
    neg = f.neg
    pivot_set = set(v0.pivots)
    coords = tuple(c for c in range(v0.n) if c not in pivot_set)
    rows = []
    for c in coords:
        row = [0] * v0.n
        row[c] = 1
        for i, pc in enumerate(v0.pivots):
            row[pc] = neg(v0.basis[i][c])
        rows.append(tuple(row))
    return LinearQuotient(v0, coords, tuple(rows))


def project(q: LinearQuotient, v: Sequence[int]) -> Row:
    """Image of v in the quotient coordinates F^t: the shared reduction
    against the kernel's basis, read at ``coords``."""
    return tuple(map(_reduce(q.kernel, v).__getitem__, q.coords))


def lift(q: LinearQuotient, s_bar: Subspace) -> Subspace:
    """Full preimage of a subspace of the quotient."""
    if s_bar.field != q.field or s_bar.n != q.codim:
        raise ValueError("ambient space mismatch")
    gens = list(q.kernel.basis)
    for row in s_bar.basis:
        w = [0] * q.ambient_dim
        for j, c in enumerate(q.coords):
            w[c] = row[j]
        gens.append(tuple(w))
    return subspace_from_generators(q.field, q.ambient_dim, gens)


# The most tail vectors span_tuples holds at once, unless one row's q
# multiples are more: the tail keeps at least one row.  A field with no
# byte sum (see ``_vector_sums``) has q >= 81, so there a default tail
# holds one row.
SPAN_BLOCK = 4096


@cache
def _vector_sums(p: int, m: int
                 ) -> tuple[Callable, bytes | None, bytes | None] | None:
    """``(add, into, out)`` for ``span_tuples``' whole-vector blocks over
    GF(p^m), or None where a byte cannot hold an entry of the sum of two
    vectors: p^m > 256, or odd p with (2p - 1)^m > 256.

    A block is ``bytes`` of row-major entries.  ``add(block, v)`` adds the
    vector v, repeated to the block's length, in one big-int operation:
    XOR of encodings in characteristic 2.  For odd p an entry is held as
    its m base-p digits read in base 2p - 1, so two entries add bytewise
    with no carry, and one ``translate`` takes every digit mod p.  ``into``
    and ``out`` are the ``translate`` tables from encodings to that form
    and back, None where the form is the encoding (p = 2 or m = 1)."""
    base = 2 * p - 1  # a digit of a sum is below base
    if p**m > 256 or p > 2 and base**m > 256:
        return None
    if p == 2:
        def add(block, v):
            size = len(block)
            return (int.from_bytes(block, "little") ^ int.from_bytes(
                v * (size // len(v)), "little")).to_bytes(size, "little")
        return add, None, None
    mod = bytes(sum(x // base**j % base % p * base**j for j in range(m))
                for x in range(base**m)).ljust(256, b"\0")

    def add(block, v):
        size = len(block)
        total = int.from_bytes(block, "little") + int.from_bytes(
            v * (size // len(v)), "little")
        return total.to_bytes(size, "little").translate(mod)

    if m == 1:
        return add, None, None
    into = bytes(sum(e // p**j % p * base**j for j in range(m))
                 for e in range(p**m)).ljust(256, b"\0")
    out = bytearray(256)
    for e in range(p**m):
        out[into[e]] = e
    return add, into, bytes(out)


def span_tuples(f: FieldDescriptor, rows: Sequence[Row],
                width: int) -> Iterator[Row]:
    """All q**len(rows) vectors sum(c_i * rows[i]), lazily, ordered by the
    coefficient tuples (c_0, c_1, ...) in lexicographic order over the
    canonical field order (first coefficient slowest).

    The span of the last rows, the tail block, is built once: at least one
    row, and more while it stays within SPAN_BLOCK vectors.  It is shifted
    by each vector of the head rows' span, which this function enumerates.
    Each level of the recursion, one row shorter at least, holds a tail of
    at most max(SPAN_BLOCK, q) vectors.

    One row over q <= 256 is its ``bytes`` translated by each of the
    field's ``muls`` tables.  Where ``_vector_sums`` serves f, the tail
    block is whole vectors, ``bytes`` of row-major entries: the last row's
    multiples are its ``muls`` translates (then translated by ``into``),
    each earlier row adds its nonzero multiples to copies of the block in
    one big-int operation, and so does each head vector to the whole
    block.  The tuples are read off with ``zip(*[iter(block)] * width)``.
    Other fields have q >= 81 and no byte sum; they hold the block as its
    ``width`` columns, lists of <c, u> built with the field's ``mul`` and
    ``add``, shift each by the head vector's entry with ``add``, one call
    per entry, and read the tuples off with ``zip``.
    """
    q = f.q
    muls = f.byte_tables
    if len(rows) == 1 and muls:
        yield from map(tuple, map(bytes(rows[0]).translate, muls))
        return
    if not width:  # zip of no columns would yield nothing
        yield from repeat((), q**len(rows))
        return
    if not rows:
        yield (0,) * width
        return
    split, size = len(rows) - 1, q
    while split and size * q <= SPAN_BLOCK:
        split, size = split - 1, size * q
    sums = _vector_sums(f.p, f.m)
    if sums:
        add, into, out = sums
        muls = [t.translate(into) for t in muls] if into else muls
        block = b"".join(map(bytes(rows[-1]).translate, muls))
        for row in reversed(rows[split:-1]):
            # the block, then the block plus each nonzero multiple of row
            shifts = b"".join(map(bytes.__mul__, map(
                bytes(row).translate, muls[1:]), repeat(len(block) // width)))
            block += add(block * (q - 1), shifts)

        def tail(head):
            # translate(None) leaves the bytes as they are
            shifted = block if head is None else add(
                block, bytes(head).translate(into))
            return zip(*[iter(shifted.translate(out) if out else shifted)]
                       * width)
    else:
        add, mul = f.add, f.mul
        cols = []
        for u in zip(*rows[split:]):
            # <c, u> for every c, first coordinate slowest: the multiples
            # of u's last entry, spread by those of each earlier entry
            col = list(map(mul, range(q), repeat(u[-1])))
            for x in reversed(u[:-1]):
                col = [add(y, z) for y in map(mul, range(q), repeat(x))
                       for z in col]
            cols.append(col)

        def tail(head):
            return zip(*(cols if head is None else (
                map(add, repeat(a), col) if a else col
                for a, col in zip(head, cols))))
    if not split:
        yield from tail(None)
        return
    for head in span_tuples(f, rows[:split], width):
        yield from tail(head)


def invert_matrix(f: FieldDescriptor, rows: Sequence[Row]) -> tuple[Row, ...]:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    aug = [tuple(r) + tuple(1 if j == i else 0 for j in range(n))
           for i, r in enumerate(rows)]
    reduced, rank = rref(f, aug)
    if rank < n or any(reduced[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in reduced[:n])


def subspaces_to_json(subspaces: Iterable[Subspace],
                      ambient: FieldDescriptor) -> list[dict]:
    """Documents of subspaces over the field ``ambient``, all holding one
    shared field document, the inverse of ``subspaces_from_json``."""
    field_doc = field_to_json(ambient)
    return [{"field": field_doc, "n": s.n, "basis": list(map(list, s.basis))}
            for s in subspaces]


def subspaces_from_json(docs: list, ambient: FieldDescriptor | None = None
                        ) -> tuple[Subspace, ...]:
    """Parse a list of subspace documents.  A caller that has parsed the
    ambient field already passes it as ``ambient``, and a list whose
    documents are all over that field, as ``subspaces_to_json`` writes
    them, is read by ``_family_from_json``.  Any other list is read here
    part by part, each part's field document parsed on its own, and the
    first bad document raises ValueError."""
    if ambient is not None:
        family = _family_from_json(docs, ambient)
        if family is not None:
            return family
    out = []
    for doc in docs:
        field_doc, n, basis = json_fields(doc, "subspace", "field", "n",
                                          "basis")
        f = field_from_json(field_doc)
        n = json_int(n, "subspace n", 1)
        if not (isinstance(basis, list)
                and all(map(isinstance, basis, repeat(list)))):
            raise ValueError("malformed subspace document: basis must be a "
                             "list of rows")
        out.append(subspace_from_rref(f, n, basis))
    return tuple(out)


def _family_from_json(docs: list, ambient: FieldDescriptor
                      ) -> tuple[Subspace, ...] | None:
    """The subspaces of ``docs`` when every document is over the ambient
    field as ``subspaces_to_json`` writes it, or None.  The checks run as a
    few passes over the whole list, each reading a type before it indexes a
    value: every document is a dict, every ``n`` is one plain int of at
    least 1, every field document is the ambient one with plain ints, and
    every basis is a list of list rows of length n.  A list that fails any
    of them returns None, and the per-part reader then names its first bad
    document.  A list that passes is a family: one of one-row bases whose
    rows hold encodings and lead with 1 is built by ``_lines``, and any
    other is read part by part by ``subspace_from_rref``, which raises its
    own error for the first bad part."""
    if not docs or set(map(type, docs)) != {dict}:
        return None
    bases = list(map(dict.get, docs, repeat("basis")))
    ns = list(map(dict.get, docs, repeat("n")))
    n = ns[0]
    fields = list(map(dict.get, docs, repeat("field")))
    if (set(map(type, ns)) != {int} or n < 1 or ns.count(n) != len(ns)
            or fields.count(field_to_json(ambient)) != len(fields)
            or set(map(type, bases)) != {list}):
        return None
    rows = list(chain.from_iterable(bases))
    # fields equal to the ambient document have its keys, modulus a list
    if (set(map(type, chain(
            map(itemgetter("p"), fields), map(itemgetter("m"), fields),
            chain.from_iterable(map(itemgetter("modulus"), fields))))) != {int}
            or set(map(type, rows)) - {list} or set(map(len, rows)) - {n}):
        return None
    one_row = set(map(len, bases)) == {1}
    del bases, ns, fields  # not held while the family is built
    if one_row and _valid_encodings(ambient.q, rows):
        leads = list(map(next, map(filter, repeat(None), rows), repeat(0)))
        if leads.count(1) == len(leads):
            return _lines(ambient, n, rows, leads)
    return tuple(map(subspace_from_rref, repeat(ambient), repeat(n),
                     map(itemgetter("basis"), docs)))
