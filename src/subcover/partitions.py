"""Partitions of F_q^n into subspaces.

Two constructions are provided:

* ``spread_partition``: for d | n, the (q^n - 1)/(q^d - 1) subspaces of
  dimension d that partition F_q^n.  F_q^n is modelled as the extension
  field K = F_{q^n} under a power basis; the parts are the multiplicative
  cosets a * F_{q^d} of the intermediate field, which K's log tables give
  directly as 0 and the powers of g^((q^n - 1)/(q^d - 1)), g generating K*.

* ``mixed_partition``: for 1 <= d <= n/2, one (n-d)-dimensional subspace
  together with q^(n-d) subspaces of dimension d.  With K = F_{q^(n-d)} and
  B a fixed d-dimensional F_q-subspace of K, the parts are K x {0} and the
  graphs G_a = {(a*b, b) : b in B} of the multiplication maps.  Distinct
  graphs meet only at 0 because (a - a')*b = 0 forces b = 0 in a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bounds import check_enumeration_size
from .gf import FieldDescriptor, field_from_json, field_new, field_to_json
from .linalg import (
    Subspace,
    invert_matrix,
    json_fields,
    json_int,
    span_tuples,  # unused; perfbench's tests read partitions.span_tuples
    subspace_from_generators,
    subspace_from_json,
    subspace_to_json,
)


@dataclass(frozen=True)
class Partition:
    """A family of subspaces of F^n pairwise meeting only at the origin
    whose union is the whole space."""

    field: FieldDescriptor
    n: int
    d: int
    kind: str  # "spread" | "mixed"
    parts: tuple[Subspace, ...]
    # True iff the parameters sit inside the range stated by the classical
    # partition lemma this construction realizes (mixed: 1 < d < n/2).
    literature_range: bool


class FieldExtension:
    """GF(q^t) modelled as a t-dimensional vector space over GF(q).

    Exposes the big field ``top`` = GF(p^(m*t)), the embedding of the base
    field into it, and exact conversions between power-basis coordinate
    tuples (length t over the base) and top-field encodings.
    """

    def __init__(self, base: FieldDescriptor, degree: int):
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.degree = degree
        p, m = base.p, base.m
        self.top = top = field_new(p, m * degree)
        # x^i, below the top field's degree, has encoding p^i
        self.power_basis = tuple(p**i for i in range(degree))
        # Over a prime base (constants embed as themselves) or at degree 1
        # (top is the base) the coordinates are the top field's digits taken
        # m at a time, so there is no embedding table or conversion matrix.
        self._embed = self._conv_inv = None
        if m > 1 and degree > 1:
            # the least root of the base modulus in the copy of the base
            # field inside top becomes the image of the base generator x
            y = min(a for a in top.subfield(m)
                    if _eval_poly(top, base.modulus, a) == 0)
            self._embed = tuple(_eval_poly(top, base.digits(c), y)
                                for c in range(base.q))
            conv_rows = [top.digits(top.mul(b, self._embed[p**j]))
                         for b in self.power_basis for j in range(m)]
            self._conv_inv = invert_matrix(field_new(p, 1), conv_rows)

    def embed(self, c: int) -> int:
        """Image in the top field of a base-field encoding."""
        return c if self._embed is None else self._embed[c]

    def from_coords(self, coords) -> int:
        """Top-field element with the given power-basis coordinates."""
        top = self.top
        w = 0
        for c, b in zip(coords, self.power_basis, strict=True):
            if c:
                w = top.add(w, top.mul(self.embed(c), b))
        return w

    def to_coords(self, w: int) -> tuple[int, ...]:
        """Power-basis coordinates (base-field encodings) of a top element."""
        q, out = self.base.q, []
        if self._conv_inv is None:
            for _ in range(self.degree):
                w, c = divmod(w, q)
                out.append(c)
            return tuple(out)
        # the conversion turns w's digits into the coordinates' base-p
        # digits, m per coordinate
        p, m = self.base.p, self.base.m
        flat = [0] * len(self._conv_inv)
        for dl, row in zip(self.top.digits(w), self._conv_inv):
            if dl:
                for k, c in enumerate(row):
                    if c:
                        flat[k] = (flat[k] + dl * c) % p
        for i in range(0, len(flat), m):
            enc = 0
            for c in reversed(flat[i:i + m]):
                enc = enc * p + c
            out.append(enc)
        return tuple(out)


def _eval_poly(f: FieldDescriptor, coeffs, a: int) -> int:
    """Horner evaluation; coeffs are base-p constants, valid in any GF(p^k)."""
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, a), c)
    return acc


@lru_cache(maxsize=None)
def _extension(base: FieldDescriptor, degree: int) -> FieldExtension:
    return FieldExtension(base, degree)


def spread_partition(f: FieldDescriptor, n: int, d: int) -> Partition:
    """Partition F^n into (q^n - 1)/(q^d - 1) subspaces of dimension d."""
    if n < 1 or d < 1 or d > n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if n % d != 0:
        raise ValueError(f"spread requires d | n, got d={d}, n={n}")
    size = check_enumeration_size(
        f.q, n, f"spread_partition(q={f.q}, n={n}, d={d})")
    ext = _extension(f, n)
    top, q = ext.top, f.q
    # GF(q^d) inside the top field is 0 and the powers of its generator b,
    # so 1, b, ..., b^(d-1) is a basis of it over GF(q)
    field_elems = top.subfield(f.m * d)
    sub_elems_top = field_elems[1:d + 1]

    expected = (size - 1) // (q**d - 1)
    covered = bytearray(size)
    parts = []
    for alpha in range(1, size):
        if covered[alpha]:
            continue
        for e in field_elems:
            covered[top.mul(alpha, e)] = 1
        gens = [ext.to_coords(top.mul(alpha, b)) for b in sub_elems_top]
        part = subspace_from_generators(f, n, gens)
        if part.dim != d:
            raise AssertionError("coset has wrong dimension")
        parts.append(part)
        if len(parts) == expected:
            break
    if len(parts) != expected:
        raise AssertionError("spread sweep produced a wrong part count")
    return Partition(f, n, d, "spread", tuple(parts), literature_range=True)


def mixed_partition(f: FieldDescriptor, n: int, d: int) -> Partition:
    """Partition F^n into one (n-d)-dimensional subspace and q^(n-d)
    subspaces of dimension d.

    The distinguished (n-d)-dimensional part is the span of the first n-d
    coordinates and always comes first in ``parts``.  Valid for
    1 <= d <= n/2; the classical statement assumes the strict range
    1 < d < n/2, recorded in ``literature_range``.
    """
    if d < 1 or 2 * d > n:
        raise ValueError(f"need 1 <= d <= n/2, got d={d}, n={n}")
    check_enumeration_size(f.q, n, f"mixed_partition(q={f.q}, n={n}, d={d})")
    ext = _extension(f, n - d)
    top, q = ext.top, f.q
    t = n - d

    distinguished = subspace_from_generators(
        f, n, [tuple(1 if j == i else 0 for j in range(n)) for i in range(t)]
    )
    parts = [distinguished]
    basis_b = ext.power_basis[:d]
    for a in range(q**t):
        gens = []
        for j in range(d):
            left = ext.to_coords(top.mul(a, basis_b[j]))
            right = tuple(1 if c == j else 0 for c in range(d))
            gens.append(left + right)
        graph = subspace_from_generators(f, n, gens)
        if graph.dim != d:
            raise AssertionError("graph part has wrong dimension")
        parts.append(graph)
    return Partition(
        f, n, d, "mixed", tuple(parts),
        literature_range=(d > 1 and 2 * d < n),
    )


def partition_to_json(p: Partition) -> dict:
    return {
        "kind": p.kind,
        "ambient": {"field": field_to_json(p.field), "n": p.n},
        "d": p.d,
        "literature_range": p.literature_range,
        "parts": [subspace_to_json(s) for s in p.parts],
    }


def partition_from_json(doc: dict) -> Partition:
    kind, ambient, d, lit, parts = json_fields(
        doc, "partition", "kind", "ambient", "d", "literature_range", "parts")
    field_doc, n = json_fields(ambient, "partition ambient", "field", "n")
    f = field_from_json(field_doc)
    n = json_int(n, "ambient n", 1)
    d = json_int(d, "d")
    if kind not in ("spread", "mixed"):
        raise ValueError(f"unknown partition kind {kind!r}")
    if not isinstance(parts, list):
        raise ValueError("malformed partition document: parts must be a list")
    parts = tuple(subspace_from_json(s, f) for s in parts)
    for s in parts:
        if s.field != f or s.n != n:
            raise ValueError("partition part has mismatched ambient space")
    return Partition(f, n, d, kind, parts, literature_range=bool(lit))
