"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^m).

Elements of GF(p^m) are residue-class polynomials over GF(p), stored as
coefficient tuples with the constant term first.  Every element also has a
canonical integer encoding enc(a) = sum(coeffs[i] * p**i), a bijection onto
[0, q) that fixes serialization and enumeration order.  The descriptor's
arithmetic methods (`add`, `mul`, ...) work directly on these integer
encodings; `FieldElem` is the wrapped value type with operator support.

The modulus of GF(p^m) is always the lexicographically smallest monic
irreducible polynomial of degree m over GF(p) (coefficient-tuple order,
constant term first), so two descriptors for the same (p, m) are
interchangeable.  For m = 1 the modulus is the polynomial x.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .bounds import max_q_pow


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_rem(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of polynomial division over GF(p); den must be monic."""
    r = list(num)
    dd = len(den) - 1
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i]
        if c:
            for j in range(dd + 1):
                r[i - dd + j] = (r[i - dd + j] - c * den[j]) % p
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division against every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if _poly_rem(poly, tail + (1,), p) == ():
                return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """A concrete finite field GF(p^m) with its canonical modulus polynomial.

    ``modulus`` is the coefficient tuple (constant first, length m+1, leading
    coefficient 1).  Construct through :func:`field_new`, which enforces the
    lexicographically-smallest-modulus invariant.
    """

    p: int
    m: int
    modulus: tuple[int, ...]
    q: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", self.p**self.m)
        if self.p == 2 and self.m > 1:
            # bit form of the modulus, for carry-less multiplication
            mod_int = sum(c << i for i, c in enumerate(self.modulus))
            object.__setattr__(self, "_mod2", mod_int)

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.m == 1 else f"GF({self.p}^{self.m})"

    # -- encoding helpers ---------------------------------------------------

    def digits(self, e: int) -> tuple[int, ...]:
        """Base-p digit tuple (constant coefficient first) of an encoding."""
        return tuple(self._digit_list(e))

    # -- arithmetic on integer encodings ------------------------------------

    def add(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        for _ in range(m):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (-a) % p
        if p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(m):
            out += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        if p == 2:
            mod, top = self._mod2, 1 << m
            r = 0
            while a and b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return r
        da, db = self._digit_list(a), self._digit_list(b)
        t = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    if cb:
                        t[i + j] = (t[i + j] + ca * cb) % p
        mod = self.modulus
        for i in range(2 * m - 2, m - 1, -1):
            c = t[i]
            if c:
                base = i - m
                for j in range(m + 1):
                    t[base + j] = (t[base + j] - c * mod[j]) % p
        out = 0
        for i in range(m - 1, -1, -1):
            out = out * p + t[i]
        return out

    def _digit_list(self, e: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.m):
            e, r = divmod(e, p)
            out.append(r)
        return out

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 1 if e == 0 else 0
        e %= self.q - 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + repr(self))
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def frobenius(self, a: int, i: int) -> int:
        """a raised to p**i (i-fold Frobenius); identity for i % m == 0."""
        if i < 0:
            raise ValueError("frobenius power must be non-negative")
        for _ in range(i % self.m):
            a = self.pow(a, self.p)
        return a

    # -- element construction -----------------------------------------------

    def elem(self, e: int) -> "FieldElem":
        """Element with canonical encoding ``e``."""
        if not 0 <= e < self.q:
            raise ValueError(f"encoding {e} out of range for {self!r}")
        return FieldElem(self, tuple(self._digit_list(e)))

    @property
    def zero(self) -> "FieldElem":
        return self.elem(0)

    @property
    def one(self) -> "FieldElem":
        return self.elem(1)


@dataclass(frozen=True)
class FieldElem:
    """A field element: length-m coefficient tuple plus its descriptor."""

    field: FieldDescriptor
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.field.m:
            raise ValueError("coefficient vector has wrong length")
        if any(not 0 <= c < self.field.p for c in self.coeffs):
            raise ValueError("coefficient out of range")

    @property
    def enc(self) -> int:
        e = 0
        for c in reversed(self.coeffs):
            e = e * self.field.p + c
        return e

    def _check(self, other: "FieldElem") -> None:
        if not isinstance(other, FieldElem):
            raise TypeError("expected a FieldElem")
        if other.field != self.field:
            raise ValueError("field mismatch")

    def __add__(self, other):
        self._check(other)
        return self.field.elem(self.field.add(self.enc, other.enc))

    def __sub__(self, other):
        self._check(other)
        return self.field.elem(self.field.sub(self.enc, other.enc))

    def __mul__(self, other):
        self._check(other)
        return self.field.elem(self.field.mul(self.enc, other.enc))

    def __truediv__(self, other):
        self._check(other)
        return self.field.elem(self.field.div(self.enc, other.enc))

    def __neg__(self):
        return self.field.elem(self.field.neg(self.enc))

    def __pow__(self, e: int):
        return self.field.elem(self.field.pow(self.enc, e))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"{self.field!r}:{self.enc}"


def field_new(p: int, m: int) -> FieldDescriptor:
    """Construct GF(p^m) with the deterministic smallest irreducible modulus.

    Raises ValueError for a p or m that is not an int (a bool is not),
    non-prime p, m < 1, or p**m over the desk bound.  The bound is read on
    every call; only the construction is cached.
    """
    if type(p) is not int or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    if type(m) is not int or m < 1:
        raise ValueError(f"extension degree must be an integer >= 1, got {m!r}")
    q = p**m
    bound = max_q_pow()
    if q > bound:
        raise ValueError(f"field order {q} over the configured bound {bound}")
    return _build_field(p, m)


@lru_cache(maxsize=None)
def _build_field(p: int, m: int) -> FieldDescriptor:
    if m == 1:
        return FieldDescriptor(p, 1, (0, 1))
    for tail in itertools.product(range(p), repeat=m):
        candidate = tail + (1,)
        if _is_irreducible(candidate, p):
            return FieldDescriptor(p, m, candidate)
    raise AssertionError("no irreducible polynomial found")  # unreachable


_ARITH_OPS = {"add", "sub", "mul", "div"}


def arith(op: str, a: FieldElem, b: FieldElem) -> FieldElem:
    """Dispatch one of {add, sub, mul, div} on two elements of one field."""
    if op not in _ARITH_OPS:
        raise ValueError(f"unknown operation {op!r}")
    if a.field != b.field:
        raise ValueError("field mismatch")
    return a.field.elem(getattr(a.field, op)(a.enc, b.enc))


def frobenius(a: FieldElem, i: int) -> FieldElem:
    """a**(p**i)."""
    return a.field.elem(a.field.frobenius(a.enc, i))


def enumerate_field(f: FieldDescriptor) -> Iterator[FieldElem]:
    """All q elements in increasing canonical integer encoding."""
    for e in range(f.q):
        yield f.elem(e)


def field_to_json(f: FieldDescriptor) -> dict:
    return {"p": f.p, "m": f.m, "modulus": list(f.modulus)}


def field_from_json(doc: dict) -> FieldDescriptor:
    """Parse a field document, rejecting anything non-canonical."""
    try:
        p, m, modulus = doc["p"], doc["m"], doc["modulus"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed field document: {doc!r}") from exc
    f = field_new(p, m)
    if list(f.modulus) != list(modulus):
        raise ValueError(
            f"modulus {modulus} is not the canonical modulus for GF({p}^{m})"
        )
    return f
