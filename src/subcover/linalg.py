"""Vectors, matrices and subspaces over GF(q).

Vectors and matrix rows are tuples of canonical integer encodings (see
``gf``).  A subspace is always held in reduced row-echelon form, which makes
set equality a plain tuple comparison and lets subspaces be deduplicated
through hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .bounds import check_enumeration_size
from .gf import FieldDescriptor, field_from_json, field_to_json

Row = tuple[int, ...]


@dataclass(frozen=True)
class Vec:
    """A vector of F^n, entries as canonical integer encodings."""

    field: FieldDescriptor
    entries: Row

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        q = self.field.q
        if any(not 0 <= e < q for e in self.entries):
            raise ValueError("entry encoding out of range")

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: "Vec") -> "Vec":
        if other.field != self.field or other.n != self.n:
            raise ValueError("vector mismatch")
        return Vec(self.field, vec_add(self.field, self.entries, other.entries))

    def scale(self, c: int) -> "Vec":
        return Vec(self.field, vec_scale(self.field, c, self.entries))


def vec_add(f: FieldDescriptor, u: Sequence[int], v: Sequence[int]) -> Row:
    add = f.add
    return tuple(add(a, b) for a, b in zip(u, v, strict=True))


def vec_scale(f: FieldDescriptor, c: int, u: Sequence[int]) -> Row:
    mul = f.mul
    return tuple(mul(c, a) for a in u)


def linear_combination(f: FieldDescriptor, coeffs: Sequence[int],
                       rows: Sequence[Row]) -> Row:
    """sum(coeffs[i] * rows[i]); rows must be non-empty and equal length."""
    out = [0] * len(rows[0])
    add, mul = f.add, f.mul
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] = add(out[j], mul(c, x))
    return tuple(out)


def rref(f: FieldDescriptor, matrix: Sequence[Sequence[int]]
         ) -> tuple[tuple[Row, ...], int]:
    """Unique reduced row-echelon form of a matrix and its rank.

    The returned matrix has the same shape as the input (zero rows sink to
    the bottom).  Raises ValueError on ragged input or bad encodings.
    """
    rows = [list(r) for r in matrix]
    if rows:
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        q = f.q
        for r in rows:
            if any(not 0 <= e < q for e in r):
                raise ValueError("entry encoding out of range")
    else:
        return (), 0
    nrows, ncols = len(rows), len(rows[0])
    sub, mul, inv = f.sub, f.mul, f.inv
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, nrows) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        piv = rows[pivot_row]
        c = piv[col]
        if c != 1:
            ic = inv(c)
            for j in range(col, ncols):
                piv[j] = mul(ic, piv[j])
        for r in range(nrows):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                row = rows[r]
                for j in range(col, ncols):
                    if piv[j]:
                        row[j] = sub(row[j], mul(factor, piv[j]))
        pivot_row += 1
        if pivot_row == nrows:
            break
    return tuple(tuple(r) for r in rows), pivot_row


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n in canonical reduced row-echelon form.

    ``basis`` holds dim-many independent rows, pivots strictly increasing;
    two Subspace values are equal as sets iff they are equal as dataclasses.
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


def _pivots_of_rref(basis: Sequence[Row]) -> tuple[int, ...]:
    out = []
    for row in basis:
        out.append(next(j for j, e in enumerate(row) if e))
    return tuple(out)


def subspace_from_generators(f: FieldDescriptor, n: int,
                             vectors: Iterable[Sequence[int] | Vec]) -> Subspace:
    """Canonical subspace equal to the span of the generators."""
    rows = []
    for v in vectors:
        entries = v.entries if isinstance(v, Vec) else tuple(v)
        if len(entries) != n:
            raise ValueError(f"generator has length {len(entries)}, ambient is {n}")
        rows.append(entries)
    reduced, rank = rref(f, rows)
    basis = reduced[:rank]
    return Subspace(f, n, basis, _pivots_of_rref(basis))


def subspace_from_rref(f: FieldDescriptor, n: int,
                       basis: Sequence[Sequence[int]]) -> Subspace:
    """Build a subspace from rows claimed to be in RREF; reject otherwise."""
    rows = tuple(tuple(r) for r in basis)
    q = f.q
    pivots = []
    for row in rows:
        if len(row) != n:
            raise ValueError("basis row has wrong length")
        if any(type(e) is not int or not 0 <= e < q for e in row):
            raise ValueError(
                f"basis entries must be integer encodings in [0, {q}), "
                f"got {list(row)!r}")
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
    return Subspace(f, n, rows, tuple(pivots))


def zero_subspace(f: FieldDescriptor, n: int) -> Subspace:
    return Subspace(f, n, (), ())


def full_subspace(f: FieldDescriptor, n: int) -> Subspace:
    rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Subspace(f, n, rows, tuple(range(n)))


def _residual(s: Subspace, entries: Row) -> Row:
    """Reduce a vector against the RREF basis; zero iff the vector is in s."""
    f = s.field
    sub, mul = f.sub, f.mul
    v = list(entries)
    for row, pc in zip(s.basis, s.pivots):
        c = v[pc]
        if c:
            for j in range(pc, s.n):
                if row[j]:
                    v[j] = sub(v[j], mul(c, row[j]))
    return tuple(v)


def contains(s: Subspace, v: Vec | Sequence[int]) -> bool:
    """Membership test by reduction against the canonical basis."""
    entries = v.entries if isinstance(v, Vec) else tuple(v)
    if len(entries) != s.n:
        raise ValueError("dimension mismatch")
    if isinstance(v, Vec) and v.field != s.field:
        raise ValueError("field mismatch")
    return not any(_residual(s, entries))


def kernel(f: FieldDescriptor, rows: Sequence[Row], n: int) -> Subspace:
    """Null space {x in F^n : row . x = 0 for every row}."""
    reduced, rank = rref(f, rows)
    reduced = reduced[:rank]
    pivots = _pivots_of_rref(reduced)
    pivot_set = set(pivots)
    neg = f.neg
    gens = []
    for free in range(n):
        if free in pivot_set:
            continue
        w = [0] * n
        w[free] = 1
        for i, pc in enumerate(pivots):
            w[pc] = neg(reduced[i][free])
        gens.append(tuple(w))
    return subspace_from_generators(f, n, gens)


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


def project(q: LinearQuotient, v: Vec | Sequence[int]) -> Vec:
    """Image of v in the quotient coordinates F^t."""
    entries = v.entries if isinstance(v, Vec) else tuple(v)
    if len(entries) != q.ambient_dim:
        raise ValueError("dimension mismatch")
    f = q.field
    add, mul = f.add, f.mul
    out = []
    for row in q.coordinate_map:
        acc = 0
        for a, b in zip(row, entries):
            if a and b:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return Vec(f, tuple(out))


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


# The most tail vectors span_tuples holds at once.
SPAN_BLOCK = 4096


def span_tuples(f: FieldDescriptor, rows: Sequence[Row],
                width: int) -> Iterator[Row]:
    """All q**len(rows) vectors sum(c_i * rows[i]), lazily, ordered by the
    coefficient tuples (c_0, c_1, ...) in lexicographic order over the
    canonical field order (first coefficient slowest).

    The span of the last rows is built once by doubling, as long as it stays
    within SPAN_BLOCK vectors; each combination of the remaining head
    coefficients is summed once and added to every one of those tail
    vectors.  Memory is bounded whatever the span's dimension: the q scaled
    copies of each row plus at most SPAN_BLOCK tail vectors.
    """
    add = f.add
    scaled = [[vec_scale(f, c, row) for c in range(f.q)] for row in rows]
    tail = [(0,) * width]
    split = len(rows)
    while split and len(tail) * f.q <= SPAN_BLOCK:
        split -= 1
        tail = [tuple(map(add, rc, v)) for rc in scaled[split] for v in tail]
    if not split:
        yield from tail
        return
    for combo in product(*scaled[:split]):
        head = combo[0]
        for rc in combo[1:]:
            head = tuple(map(add, head, rc))
        for v in tail:
            yield tuple(map(add, head, v))


def enumerate_vectors(s: Subspace) -> Iterator[Vec]:
    """All q**dim vectors of the subspace, deterministically ordered."""
    check_enumeration_size(s.field.q, s.dim, f"enumerating {s!r}")
    for t in span_tuples(s.field, s.basis, s.n):
        yield Vec(s.field, t)


def invert_matrix(f: FieldDescriptor, rows: Sequence[Row]) -> tuple[Row, ...]:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(rows)
    aug = [tuple(r) + tuple(1 if j == i else 0 for j in range(n))
           for i, r in enumerate(rows)]
    reduced, rank = rref(f, aug)
    if rank < n or any(reduced[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return tuple(r[n:] for r in reduced[:n])


def subspace_to_json(s: Subspace) -> dict:
    return {
        "field": field_to_json(s.field),
        "n": s.n,
        "basis": [list(r) for r in s.basis],
    }


def json_int(value, what: str, minimum: int | None = None) -> int:
    """An integer read from a JSON document; a bool, any other type, or a
    value below ``minimum`` raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    return value


def json_fields(doc, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``doc``.  A document that
    is not an object, or lacks a key, raises ValueError naming the document
    kind ``what`` and the key, never the document itself."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what} document: expected an object, "
                         f"got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"malformed {what} document: missing key {key!r}")
    return [doc[key] for key in keys]


def subspace_from_json(doc: dict, ambient: FieldDescriptor | None = None
                       ) -> Subspace:
    """Parse a subspace document.  A caller that has parsed the ambient
    field already passes it as ``ambient``: a subspace whose field document
    equals the ambient one then reuses it instead of parsing its own."""
    field_doc, n, basis = json_fields(doc, "subspace", "field", "n", "basis")
    if ambient is not None and field_doc == field_to_json(ambient):
        f = ambient
    else:
        f = field_from_json(field_doc)
    n = json_int(n, "subspace n", 1)
    if not isinstance(basis, list) or not all(isinstance(r, list) for r in basis):
        raise ValueError("malformed subspace document: basis must be a list "
                         "of rows")
    return subspace_from_rref(f, n, basis)
