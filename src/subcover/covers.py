"""Minimal covers of vector spaces by subspaces of fixed codimension.

The centre of the package: the symbolic cardinality classifier ``nu``, the
constructive minimal cover ``cover_finite`` for finite spaces (spread when
(n-k) | n, otherwise repeated mixed-partition peeling plus a quotient-lift
tail), cover lifting through quotients, the projective-space membership
assignment over an exact infinite field (the rationals), the countable
filtration cover for infinite-dimensional spaces, and the q -> 1 limit of
the counting formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .bounds import check_enumeration_size
from .gf import FieldDescriptor, field_from_json, field_to_json
from .linalg import (
    LinearQuotient,
    Subspace,
    json_fields,
    json_int,
    lift,
    quotient,
    subspace_from_generators,
    subspace_from_json,
    subspace_to_json,
)
from .partitions import mixed_partition, spread_partition


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def minimal_cover_count(q: int, n: int, k: int) -> int:
    """ceil((q^n - 1) / (q^(n-k) - 1)), exact big-integer arithmetic."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return ceil_div(q**n - 1, q ** (n - k) - 1)


# ---------------------------------------------------------------------------
# symbolic classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceSpec:
    """An ambient vector space: field either a concrete finite field or a
    labelled infinite field; dimension either finite or infinite (None)."""

    field: FieldDescriptor | None
    dim: int | None
    field_label: str = "Q"

    def __post_init__(self):
        if self.dim is not None and self.dim < 1:
            raise ValueError("finite dimension must be >= 1")

    @classmethod
    def finite(cls, f: FieldDescriptor, n: int) -> "SpaceSpec":
        return cls(f, n)

    @classmethod
    def finite_field_infinite_dim(cls, f: FieldDescriptor) -> "SpaceSpec":
        return cls(f, None)

    @classmethod
    def infinite_field(cls, n: int, label: str = "Q") -> "SpaceSpec":
        return cls(None, n, label)

    @classmethod
    def doubly_infinite(cls, label: str = "Q") -> "SpaceSpec":
        return cls(None, None, label)


FINITE = "finite"
COUNTABLY_INFINITE = "countably-infinite"
FIELD_POWER_PLUS_POINT = "field-power-plus-point"


@dataclass(frozen=True)
class CoverCardinality:
    """The minimal indexing set of a cover: a finite count, countably
    infinite, or the set F^k plus one extra point."""

    kind: str
    count: int | None = None
    k: int | None = None

    @classmethod
    def finite(cls, count: int) -> "CoverCardinality":
        if count < 2:
            raise ValueError("a proper-subspace cover needs at least 2 parts")
        return cls(FINITE, count=count)

    @classmethod
    def countably_infinite(cls) -> "CoverCardinality":
        return cls(COUNTABLY_INFINITE)

    @classmethod
    def field_power_plus_point(cls, k: int) -> "CoverCardinality":
        if k < 1:
            raise ValueError("k must be >= 1")
        return cls(FIELD_POWER_PLUS_POINT, k=k)

    def counted(self, q: int | None = None) -> int | None:
        """Numeric value when one exists: the finite count, or q^k + 1 for
        the F^k-plus-point case over a field of order q."""
        if self.kind == FINITE:
            return self.count
        if self.kind == FIELD_POWER_PLUS_POINT and q is not None:
            return q**self.k + 1
        return None


def nu(spec: SpaceSpec, k: int) -> CoverCardinality:
    """Minimal indexing set for covering the space by subspaces of
    codimension at least k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if spec.dim is not None and k >= spec.dim:
        raise ValueError(f"need k < dim, got k={k}, dim={spec.dim}")
    if spec.field is not None and spec.dim is not None:
        return CoverCardinality.finite(
            minimal_cover_count(spec.field.q, spec.dim, k)
        )
    if spec.field is None and spec.dim is None:
        return CoverCardinality.countably_infinite()
    return CoverCardinality.field_power_plus_point(k)


def cardinality_to_json(c: CoverCardinality) -> dict:
    doc: dict = {"kind": c.kind}
    if c.count is not None:
        doc["count"] = c.count
    if c.k is not None:
        doc["k"] = c.k
    return doc


def cardinality_from_json(doc: dict) -> CoverCardinality:
    kind = doc.get("kind")
    if kind == FINITE:
        return CoverCardinality.finite(doc["count"])
    if kind == COUNTABLY_INFINITE:
        return CoverCardinality.countably_infinite()
    if kind == FIELD_POWER_PLUS_POINT:
        return CoverCardinality.field_power_plus_point(doc["k"])
    raise ValueError(f"unknown cardinality kind {kind!r}")


# ---------------------------------------------------------------------------
# the q -> 1 limit
# ---------------------------------------------------------------------------

def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (constant term first); the
    remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quo = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quo[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ValueError("division is not exact")
    return quo


def f1_limit_value(n: int, k: int) -> Fraction:
    """Value at q = 1 of (q^n - 1)/(q^(n-k) - 1) after cancelling the shared
    root at 1 by exact polynomial division."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    q_minus_1 = [-1, 1]
    num = _poly_divexact([-1] + [0] * (n - 1) + [1], q_minus_1)
    den = _poly_divexact([-1] + [0] * (n - k - 1) + [1], q_minus_1)
    return Fraction(sum(num), sum(den))


def f1_cover_number(n: int, k: int) -> int:
    """ceil(n / (n - k)): the q -> 1 degeneration of the cover count."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return ceil_div(n, n - k)


# ---------------------------------------------------------------------------
# constructive covers of finite spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    """One step of the cover construction.

    kind "spread": a single spread partition at ``ambient_dim``.
    kind "peel":   a mixed partition at ``ambient_dim``, keeping the
                   q^(ambient_dim - block_dim) small parts and recursing
                   into the distinguished one.
    kind "tail":   quotient the remaining ambient by a kernel of dimension
                   ``kernel_dim``, spread the quotient, and lift.
    kind "lift":   a whole-cover lift through a quotient (lift_cover).
    """

    kind: str
    ambient_dim: int
    block_dim: int
    count: int
    kernel_dim: int = 0
    quotient_dim: int = 0


@dataclass(frozen=True)
class Provenance:
    kind: str  # "spread" | "peeling" | "lifted"
    steps: tuple[PlanStep, ...]

    @property
    def predicted_count(self) -> int:
        return sum(s.count for s in self.steps if s.kind != "lift")


def cover_plan(q: int, n: int, k: int) -> Provenance:
    """Plan the minimal cover construction symbolically.

    Runs for any size (nothing is materialized); the summed step counts
    always telescope to ceil((q^n - 1)/(q^(n-k) - 1)).
    """
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    d = n - k
    if n % d == 0:
        steps = (PlanStep("spread", n, d, (q**n - 1) // (q**d - 1)),)
        plan = Provenance("spread", steps)
    else:
        steps = []
        cur = n
        while cur > 2 * d:
            steps.append(PlanStep("peel", cur, d, q ** (cur - d)))
            cur -= d
        steps.append(
            PlanStep(
                "tail", cur, d, q ** (cur - d) + 1,
                kernel_dim=2 * d - cur, quotient_dim=2 * (cur - d),
            )
        )
        plan = Provenance("peeling", tuple(steps))
    if plan.predicted_count != minimal_cover_count(q, n, k):
        raise AssertionError("plan count does not telescope")
    return plan


@dataclass(frozen=True)
class Cover:
    """A family of codimension-k subspaces of F^n covering the space."""

    field: FieldDescriptor
    n: int
    codim: int
    subspaces: tuple[Subspace, ...]
    provenance: Provenance

    def __post_init__(self):
        want = self.n - self.codim
        for s in self.subspaces:
            if s.field != self.field or s.n != self.n:
                raise ValueError("cover subspace in wrong ambient space")
            if s.dim != want:
                raise ValueError(
                    f"cover subspace has dimension {s.dim}, want {want}"
                )

    @property
    def count(self) -> int:
        return len(self.subspaces)


def _pad(s: Subspace, n: int) -> Subspace:
    """s as a subspace of F^n on the first s.n coordinates: its RREF rows
    padded with zeros are still in RREF, with the same pivots."""
    pad = (0,) * (n - s.n)
    return Subspace(s.field, n, tuple(row + pad for row in s.basis), s.pivots)


def cover_finite(f: FieldDescriptor, n: int, k: int) -> Cover:
    """Construct the minimal cover of F^n by codimension-k subspaces.

    Exactly ceil((q^n - 1)/(q^(n-k) - 1)) subspaces, each of dimension
    n - k.  When (n-k) | n this is a spread; otherwise mixed partitions
    peel off q^(n-d), q^(n-2d), ... subspaces until the leftover dimension
    r sits strictly between d and 2d, and the tail covers that leftover by
    lifting a spread of a 2(r-d)-dimensional quotient.
    """
    check_enumeration_size(f.q, n, f"cover_finite(q={f.q}, n={n}, k={k})")
    plan = cover_plan(f.q, n, k)
    d = n - k
    if plan.kind == "spread":
        parts = spread_partition(f, n, d).parts
        return Cover(f, n, k, parts, plan)

    # each mixed partition lives on the first cur coordinates, the
    # distinguished part of the one before
    subs: list[Subspace] = []
    cur = n
    while cur > 2 * d:
        mp = mixed_partition(f, cur, d)
        subs.extend(_pad(graph, n) for graph in mp.parts[1:])
        cur -= d

    r = cur
    v0 = subspace_from_generators(
        f, r,
        [tuple(1 if j == r - 1 - i else 0 for j in range(r))
         for i in range(2 * d - r)],
    )
    quot = quotient(v0)
    tail_spread = spread_partition(f, 2 * (r - d), r - d)
    subs.extend(_pad(lift(quot, part), n) for part in tail_spread.parts)

    if len(subs) != plan.predicted_count:
        raise AssertionError("materialized count differs from the plan")
    return Cover(f, n, k, tuple(subs), plan)


def lift_cover(q: LinearQuotient, c: Cover) -> Cover:
    """Lift every subspace of a cover of the quotient back to the ambient
    space; codimension and the covering property are preserved."""
    if c.field != q.field or c.n != q.codim:
        raise ValueError("cover does not live on the quotient space")
    lifted = tuple(lift(q, s) for s in c.subspaces)
    step = PlanStep("lift", q.ambient_dim, c.n - c.codim + q.kernel.dim,
                    len(lifted), kernel_dim=q.kernel.dim,
                    quotient_dim=q.codim)
    prov = Provenance("lifted", (step,) + c.provenance.steps)
    return Cover(q.field, q.ambient_dim, c.codim, lifted, prov)


# ---------------------------------------------------------------------------
# infinite fields: projective assignment over exact rationals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectiveIndex:
    """A point of projective k-space in normal form: leading 1 at position
    ``i`` followed by the ``tail`` coordinates (0,...,0,1,a_{i+1},...,a_k)."""

    i: int
    tail: tuple[Fraction, ...]

    def __post_init__(self):
        if self.i < 0:
            raise ValueError("leading position must be >= 0")
        object.__setattr__(self, "tail", tuple(Fraction(t) for t in self.tail))

    @property
    def k(self) -> int:
        return self.i + len(self.tail)

    def normal_form(self) -> tuple[Fraction, ...]:
        return (Fraction(0),) * self.i + (Fraction(1),) + self.tail


@dataclass(frozen=True)
class MembershipWitness:
    """Certificate that a vector lies in the subspace indexed by a
    projective point: v - coefficient * generator is supported away from
    the designated positions."""

    coefficient: Fraction
    generator: tuple[Fraction, ...]
    designated: tuple[int, ...]

    def validate(self, v: Sequence[Fraction | int | str]) -> bool:
        vv = [Fraction(x) for x in v]
        if len(vv) != len(self.generator):
            return False
        return all(
            vv[p] - self.coefficient * self.generator[p] == 0
            for p in self.designated
        )


def projective_assign(
    v: Sequence[Fraction | int | str],
    positions: Sequence[int],
    rest: Sequence[int] | None = None,
) -> tuple[ProjectiveIndex, MembershipWitness]:
    """Assign a vector to the member of the standard codimension-k cover
    (indexed by projective k-space) that contains it.

    ``positions`` are the k+1 designated coordinate indices; ``rest``, if
    given, must be exactly the complement.  The witness certifies membership
    by exact rational arithmetic.  Vectors vanishing on every designated
    coordinate get the conventional index (0,...,0,1).
    """
    vv = tuple(Fraction(x) for x in v)
    pos = tuple(positions)
    if len(pos) < 2 or len(set(pos)) != len(pos):
        raise ValueError("positions must be at least 2 distinct indices")
    if any(not 0 <= p < len(vv) for p in pos):
        raise ValueError("position out of range")
    complement = tuple(sorted(set(range(len(vv))) - set(pos)))
    if rest is not None and tuple(sorted(rest)) != complement:
        raise ValueError("rest is not the complement of positions")
    k = len(pos) - 1

    beta = [vv[p] for p in pos]
    lead = next((i for i, b in enumerate(beta) if b != 0), None)
    if lead is None:
        index = ProjectiveIndex(k, ())
        coeff = Fraction(0)
    else:
        index = ProjectiveIndex(
            lead, tuple(beta[j] / beta[lead] for j in range(lead + 1, k + 1))
        )
        coeff = beta[lead]

    generator = [Fraction(0)] * len(vv)
    nf = index.normal_form()
    for j, p in enumerate(pos):
        generator[p] = nf[j]
    witness = MembershipWitness(coeff, tuple(generator), pos)
    return index, witness


def projective_index_to_json(x: ProjectiveIndex) -> dict:
    return {
        "i": x.i,
        "tail": [f"{t.numerator}/{t.denominator}" for t in x.tail],
    }


def projective_index_from_json(doc: dict) -> ProjectiveIndex:
    i, tail = json_fields(doc, "projective index", "i", "tail")
    if not isinstance(tail, list) or not all(isinstance(t, str) for t in tail):
        raise ValueError("malformed projective index document: tail must be "
                         "a list of rational strings")
    return ProjectiveIndex(json_int(i, "projective index i", 0),
                           tuple(Fraction(t) for t in tail))


# ---------------------------------------------------------------------------
# infinite dimension: the filtration cover
# ---------------------------------------------------------------------------

def countable_cover_index(support: Mapping[int, Fraction | int | str]) -> int:
    """Least n such that the vector lies in the span of the first n basis
    elements of the fixed filtration; 0 for the zero vector.

    ``support`` maps basis indices to nonzero scalars.
    """
    if not support:
        return 0
    top = -1
    for idx, scalar in support.items():
        if not isinstance(idx, int) or idx < 0:
            raise ValueError(f"bad basis index {idx!r}")
        if Fraction(scalar) == 0:
            raise ValueError(f"support carries a zero scalar at index {idx}")
        top = max(top, idx)
    return top + 1


def filtration_contains(support: Mapping[int, Fraction | int | str],
                        n: int) -> bool:
    """Whether the vector lies in the span of the first n basis elements."""
    return all(idx < n for idx in support)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def provenance_to_json(p: Provenance) -> dict:
    steps = []
    for s in p.steps:
        step = {
            "kind": s.kind,
            "ambient_dim": s.ambient_dim,
            "block_dim": s.block_dim,
            "count": s.count,
        }
        if s.kind in ("tail", "lift"):
            step["kernel_dim"] = s.kernel_dim
            step["quotient_dim"] = s.quotient_dim
        steps.append(step)
    return {"kind": p.kind, "steps": steps}


_PROVENANCE_KINDS = ("spread", "peeling", "lifted")
_STEP_KINDS = ("spread", "peel", "tail", "lift")
_STEP_INTS = ("ambient_dim", "block_dim", "count", "kernel_dim", "quotient_dim")


def provenance_from_json(doc: dict) -> Provenance:
    kind, raw_steps = json_fields(doc, "provenance", "kind", "steps")
    if kind not in _PROVENANCE_KINDS:
        raise ValueError(f"unknown provenance kind {kind!r}")
    if not isinstance(raw_steps, list):
        raise ValueError("malformed provenance document: steps must be a list")
    steps = []
    for s in raw_steps:
        step_kind, *_ = json_fields(s, "plan step", "kind", "ambient_dim",
                                    "block_dim", "count")
        if step_kind not in _STEP_KINDS:
            raise ValueError(f"unknown plan step kind {step_kind!r}")
        ints = {key: json_int(s.get(key, 0), f"plan step {key}", 0)
                for key in _STEP_INTS}
        steps.append(PlanStep(step_kind, **ints))
    return Provenance(kind, tuple(steps))


def cover_to_json(c: Cover) -> dict:
    return {
        "ambient": {"field": field_to_json(c.field), "n": c.n},
        "codim": c.codim,
        "count": c.count,
        "subspaces": [subspace_to_json(s) for s in c.subspaces],
        "provenance": provenance_to_json(c.provenance),
    }


def cover_from_json(doc: dict) -> Cover:
    ambient, codim, subspaces, prov, count = json_fields(
        doc, "cover", "ambient", "codim", "subspaces", "provenance", "count")
    field_doc, n = json_fields(ambient, "cover ambient", "field", "n")
    f = field_from_json(field_doc)
    n = json_int(n, "ambient n", 1)
    codim = json_int(codim, "codim")
    if not isinstance(subspaces, list):
        raise ValueError("malformed cover document: subspaces must be a list")
    subspaces = tuple(subspace_from_json(s, f) for s in subspaces)
    prov = provenance_from_json(prov)
    if count != len(subspaces):
        raise ValueError("count does not match the subspace list")
    return Cover(f, n, codim, subspaces, prov)
