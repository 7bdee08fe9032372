"""Partitions of F_q^n into subspaces.

Two constructions are provided:

* ``spread_partition``: for d | n, the (q^n - 1)/(q^d - 1) subspaces of
  dimension d that partition F_q^n.  F_q^n is modelled as the extension
  field K = F_{q^n} under a power basis; the parts are the multiplicative
  cosets a * F_{q^d} of the intermediate field, which K's log tables give
  directly as 0 and the powers of g^((q^n - 1)/(q^d - 1)), g generating K*.
  Lines over a prime field (d = 1, q = p) need no K: the coset of alpha is
  its p - 1 nonzero multiples, led by the one whose top base-p digit is 1,
  so the parts are read off the digit tuples of GF(p)^n (``_prime_lines``).

* ``mixed_partition``: for 1 <= d <= n/2, one (n-d)-dimensional subspace
  together with q^(n-d) subspaces of dimension d.  With K = F_{q^(n-d)} and
  B a fixed d-dimensional F_q-subspace of K, the parts are K x {0} and the
  graphs G_a = {(a*b, b) : b in B} of the multiplication maps.  Distinct
  graphs meet only at 0 because (a - a')*b = 0 forces b = 0 in a field.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, product, repeat

from .bounds import check_enumeration_size
from .gf import (FieldDescriptor, field_from_json, field_new, field_to_json,
                 json_fields, json_int)
from .linalg import (
    Row,
    Subspace,
    invert_matrix,
    _spans,
    span_tuples,  # unused; perfbench's tests read partitions.span_tuples
    subspaces_from_json,
    subspaces_to_json,
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

    def __post_init__(self):
        f = self.field
        for s in self.parts:
            if s.field is not f and s.field != f or s.n != self.n:
                raise ValueError("partition part has mismatched ambient space")


class FieldExtension:
    """GF(q^t) modelled as a t-dimensional vector space over GF(q).

    Exposes the big field ``top`` = GF(p^(m*t)) and the exact conversion of
    a top-field encoding to its power-basis coordinate tuple (length t over
    the base).  The coordinates of w are the base-q digits of one integer
    flat(w): w itself over a prime base or at degree 1, else the
    GF(p)-linear image of w that takes x^i times the embedded base element
    p^j to p^(i*m + j), with the embedding of the base field tabulated in
    ``_embed`` (None where there is no such image to take).
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
        # The coordinates are read off a table of the q^c digit tuples of
        # flat(w), c = t // 3, as three chunks and the top t mod 3 digits.
        self._chunk = base.q ** (degree // 3)
        self._digits = [t[::-1] for t in product(range(base.q),
                                                  repeat=degree // 3)]
        self._embed = self._low = None
        if m > 1 and degree > 1:
            # the least root of the base modulus in the copy of the base
            # field inside top becomes the image of the base generator x
            y = min(a for a in top.subfield(m)
                    if _eval_poly(top, base.modulus, a) == 0)
            self._embed = tuple(_eval_poly(top, base.digits(c), y)
                                for c in range(base.q))
            conv_inv = invert_matrix(field_new(p, 1), [
                top.digits(top.mul(b, self._embed[p**j]))
                for b in self.power_basis for j in range(m)])
            # flat is GF(p)-linear, and top.add adds base-p digits mod p, so
            # flat(w) is the top.add of flat of w's low and of its high
            # digits, each tabulated from the images flat(p^k), the rows
            # of conv_inv packed as ints
            low_digits = m * degree // 2
            self._half = p**low_digits
            units = [sum(c * p**i for i, c in enumerate(row))
                     for row in conv_inv]
            self._low = _span_table(top, units[:low_digits])
            self._high = _span_table(top, units[low_digits:])

    def to_coords(self, w: int) -> tuple[int, ...]:
        """Power-basis coordinates (base-field encodings) of a top element:
        the base-q digits of flat(w)."""
        if self._low is not None:
            high, low = divmod(w, self._half)
            w = self.top.add(self._low[low], self._high[high])
        q, chunk, digits = self.base.q, self._chunk, self._digits
        high, low = divmod(w, chunk)
        high, mid = divmod(high, chunk)
        last, third = divmod(high, chunk)
        return (digits[low] + digits[mid] + digits[third]
                + (last % q, last // q)[:self.degree % 3])


def _span_table(top: FieldDescriptor, units: list[int]) -> list[int]:
    """The GF(p)-combination sum(a_k * units[k]) in top, at the index whose
    base-p digits are the a_k (constant first): one ``top.add`` per entry,
    onto the entry with its top digit one lower."""
    table = [0]
    for u in units:
        layers = [table]
        for _ in range(1, top.p):
            layers.append(list(map(top.add, layers[-1], repeat(u))))
        table = list(chain(*layers))
    return table


def _eval_poly(f: FieldDescriptor, coeffs, a: int) -> int:
    """Horner evaluation; coeffs are base-p constants, valid in any GF(p^k)."""
    acc = 0
    for c in reversed(coeffs):
        acc = f.add(f.mul(acc, a), c)
    return acc


def partition_shape(kind: str, q: int, n: int, d: int
                    ) -> tuple[Counter, bool]:
    """The part dimensions, as a Counter, and the ``literature_range`` of
    a "spread" or "mixed" partition of GF(q)^n into parts of dimension d;
    parameters outside the kind's range raise ValueError."""
    if kind == "spread":
        if not 1 <= d <= n:
            raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
        if n % d:
            raise ValueError(f"spread requires d | n, got d={d}, n={n}")
        return Counter({d: (q**n - 1) // (q**d - 1)}), True
    if not 1 <= d <= n - d:
        raise ValueError(f"need 1 <= d <= n/2, got d={d}, n={n}")
    return (Counter({n - d: 1}) + Counter({d: q ** (n - d)}),
            d > 1 and 2 * d < n)


def spread_partition(f: FieldDescriptor, n: int, d: int) -> Partition:
    """Partition F^n into (q^n - 1)/(q^d - 1) subspaces of dimension d."""
    # the size guard comes first: partition_shape computes q^n
    check_enumeration_size(f.q, n, f"spread_partition(q={f.q}, n={n}, d={d})")
    shape, literature = partition_shape("spread", f.q, n, d)
    if d == 1 and f.m == 1:
        return Partition(f, n, 1, "spread", _spans(f, n, _prime_lines(f.p, n)),
                         literature_range=literature)
    ext = FieldExtension(f, n)
    top = ext.top
    # With g the top field's generator, GF(q^d)* is the powers of
    # b = g^step, step = (q^n - 1)/(q^d - 1), so the parts' unit sets, the
    # cosets alpha GF(q^d)*, are the powers g^(i + j step) for each i below
    # step.  Led by its least element alpha = g^s, a coset has the basis
    # alpha, alpha b, ..., alpha b^(d-1), that is g^(s + j step) for j < d;
    # the parts go in increasing alpha.
    exp, units = top.exp, top.q - 1
    step = units // (f.q**d - 1)
    leaders = []
    for i in range(step):
        coset = exp[i:units:step]
        alpha = min(coset)
        leaders.append((alpha, i + step * coset.index(alpha)))
    if len(leaders) != shape[d]:
        raise AssertionError("spread sweep produced a wrong part count")
    leaders.sort()
    parts = _spans(f, n, [[ext.to_coords(exp[s + j * step]) for j in range(d)]
                          for _, s in leaders])
    if any(part.dim != d for part in parts):
        raise AssertionError("coset has wrong dimension")
    return Partition(f, n, d, "spread", parts, literature_range=literature)


def _prime_lines(p: int, n: int) -> list[tuple[Row]]:
    """One generator of each line of GF(p)^n, in the order of the general
    sweep.  Over GF(p), top = GF(p^n) and a coset alpha GF(p)* is the set
    of alpha's nonzero multiples, whose coordinates are alpha's base-p
    digits (constant first) times 1, ..., p - 1; the least of them is the
    one whose top nonzero digit is 1.  So the alphas are range(p^k, 2 p^k)
    for k < n, in increasing order: the digits of each number below p^k,
    then 1, then zeros.  No table of GF(p^n) is built."""
    lines = []
    for k in range(n):
        top = (1,) + (0,) * (n - 1 - k)
        lines += [(low[::-1] + top,) for low in product(range(p), repeat=k)]
    return lines


def mixed_partition(f: FieldDescriptor, n: int, d: int) -> Partition:
    """Partition F^n into one (n-d)-dimensional subspace and q^(n-d)
    subspaces of dimension d, for 1 <= d <= n/2 (``partition_shape``).

    The distinguished (n-d)-dimensional part is the span of the first n-d
    coordinates and always comes first in ``parts``.
    """
    check_enumeration_size(f.q, n, f"mixed_partition(q={f.q}, n={n}, d={d})")
    _, literature = partition_shape("mixed", f.q, n, d)
    ext = FieldExtension(f, n - d)
    top, q = ext.top, f.q
    t = n - d

    gens = [[tuple(1 if j == i else 0 for j in range(n)) for i in range(t)]]
    basis_b = ext.power_basis[:d]
    units = [tuple(1 if c == j else 0 for c in range(d)) for j in range(d)]
    for a in range(q**t):
        images = map(ext.to_coords, map(top.mul, repeat(a), basis_b))
        gens.append(list(map(tuple.__add__, images, units)))
    parts = _spans(f, n, gens)
    if any(graph.dim != d for graph in parts[1:]):
        raise AssertionError("graph part has wrong dimension")
    return Partition(f, n, d, "mixed", parts, literature_range=literature)


def follows_kind(p: Partition) -> bool:
    """Whether the multiset of part dimensions and ``literature_range`` are
    the ``partition_shape`` of the partition's kind, q, n and d; parameters
    out of the kind's range fail.  The order of the parts is not read."""
    try:
        want, literature = partition_shape(p.kind, p.field.q, p.n, p.d)
    except ValueError:
        return False
    return (p.literature_range == literature
            and Counter(s.dim for s in p.parts) == want)


def partition_to_json(p: Partition) -> dict:
    return partition_head_to_json(p) | {
        "parts": subspaces_to_json(p.parts, p.field)}


def partition_head_to_json(p: Partition) -> dict:
    """``partition_to_json(p)`` without its family, ``"parts"``."""
    return {
        "kind": p.kind,
        "ambient": {"field": field_to_json(p.field), "n": p.n},
        "d": p.d,
        "literature_range": p.literature_range,
    }


def partition_from_json(doc: dict) -> Partition:
    kind, ambient, d, lit, parts = json_fields(
        doc, "partition", "kind", "ambient", "d", "literature_range", "parts")
    field_doc, n = json_fields(ambient, "partition ambient", "field", "n")
    f = field_from_json(field_doc)
    n = json_int(n, "ambient n", 1)
    d = json_int(d, "d", 1)
    if kind not in ("spread", "mixed"):
        raise ValueError(f"unknown partition kind {kind!r}")
    if not isinstance(lit, bool):
        raise ValueError("literature_range must be a boolean, got "
                         f"{type(lit).__name__}")
    if not isinstance(parts, list):
        raise ValueError("malformed partition document: parts must be a list")
    return Partition(f, n, d, kind, subspaces_from_json(parts, f),
                     literature_range=lit)
