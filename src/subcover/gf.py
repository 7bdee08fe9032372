"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^m).

Elements of GF(p^m) are residue-class polynomials over GF(p), stored as
coefficient tuples with the constant term first.  Every element also has a
canonical integer encoding enc(a) = sum(coeffs[i] * p**i), a bijection onto
[0, q) that fixes serialization and enumeration order.  The descriptor's
arithmetic methods (`add`, `mul`, ...) work directly on these integer
encodings; `FieldElem` is the wrapped value type with operator support.

Every (p, m) takes one table-driven path.  On its first arithmetic call a
descriptor builds log/antilog tables to the base of its least primitive
element g (smallest encoding), so mul, div, inv, pow, frobenius and neg
are lookups.  Addition is XOR of encodings in characteristic 2 and uses
Zech logarithms for odd p: g^a + g^b = g^(a + Z(b - a)), 1 + g^n = g^Z(n).

The modulus of GF(p^m) is always the lexicographically smallest monic
irreducible polynomial of degree m over GF(p) (coefficient-tuple order,
constant term first), so two descriptors for the same (p, m) are
interchangeable.  For m = 1 the modulus is the polynomial x.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import isqrt
from typing import Iterator

from .bounds import check_enumeration_size


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


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    """Product of two non-empty polynomials over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_pow(a: tuple[int, ...], e: int, modulus: tuple[int, ...],
              p: int) -> tuple[int, ...]:
    """a**e modulo the monic modulus over GF(p), by square-and-multiply."""
    out = (1,)
    while e:
        if e & 1:
            out = _poly_rem(_poly_mul(out, a, p), modulus, p)
        a = _poly_rem(_poly_mul(a, a, p), modulus, p)
        e >>= 1
    return out


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

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.m == 1 else f"GF({self.p}^{self.m})"

    # -- encoding helpers ---------------------------------------------------

    def digits(self, e: int) -> tuple[int, ...]:
        """Base-p digit tuple (constant coefficient first) of an encoding."""
        p = self.p
        out = []
        for _ in range(self.m):
            e, r = divmod(e, p)
            out.append(r)
        return tuple(out)

    # -- log/antilog tables -------------------------------------------------

    @cached_property
    def _tables(self) -> tuple[array, array, array, int]:
        """``(exp, log, zech, log(-1))``, built on the first arithmetic call.

        With g the least primitive element: ``exp[i] = enc(g^i)`` over two
        periods, ``log[enc(g^i)] = i`` (and ``log[0] = 0``), and for odd p
        ``zech[n] = log(1 + g^n)``, 0 exactly where 1 + g^n = 0 (empty in
        characteristic 2).  Entries take 2 bytes while q <= 2^16, 4 above.
        -1 has encoding p - 1, so log(-1) is (q-1)/2 for odd p and 0 for p = 2.
        """
        p, q, m, modulus = self.p, self.q, self.m, self.modulus
        n = q - 1
        # g generates GF(q)* iff g^(n/r) != 1 for every prime r dividing n
        primes = {d for r in range(1, isqrt(n) + 1) if n % r == 0
                  for d in (r, n // r) if is_prime(d)}
        for g in range(1, q):
            # g's digits without trailing zeros, so each product is short
            step = _poly_rem(self.digits(g), modulus, p)
            if all(_poly_pow(step, n // r, modulus, p) != (1,) for r in primes):
                break
        # The tables are filled coset by coset, g^s <h> for h = x (h = g when
        # m = 1), since an encoding times h is one integer product whose
        # overflow digit c folds back as c x^m = -c (modulus - x^m).
        h = p if m > 1 else g
        folds = [(p**j, -c % p) for j, c in enumerate(modulus[:m]) if c]

        def orbit(e):  # e, h e, h^2 e, ... until the walk returns to e
            start = e
            while True:
                yield e
                c, e = divmod(e * h, q)
                for w, t in folds:
                    d = e // w % p
                    e += ((d + c * t) % p - d) * w
                if e == start:
                    return

        code = "H" if q <= 1 << 16 else "I"
        weights = [p**j for j in range(m)]
        powers_of_h = array(code, orbit(1))
        k = len(powers_of_h)
        r = n // k
        # g^r = h^j generates <h>, so h = g^(r / j mod k)
        g_r = sum(map(operator.mul, _poly_pow(step, r, modulus, p), weights))
        log_h = r * pow(powers_of_h.index(g_r), -1, k)
        exp, log = array(code, [0]) * (2 * n), array(code, [0]) * q
        for s in range(r):
            g_s = _poly_pow(step, s, modulus, p)
            i = s  # the log of g^s h^j for j = 0, 1, ...
            for e in orbit(sum(map(operator.mul, g_s, weights))):
                exp[i] = exp[i + n] = e
                log[e] = i
                i = (i + log_h) % n
        zech = array(code, () if p == 2 else
                     (log[e - e % p + (e + 1) % p]
                      for e in itertools.islice(exp, n)))
        return exp, log, zech, log[p - 1]

    # -- arithmetic on integer encodings ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not (a and b):
            return a or b
        exp, log, zech, _ = self._tables
        la = log[a]
        # g^la + g^lb = g^(la + zech[lb - la]); zech has q - 1 entries, so
        # a negative difference wraps modulo q - 1.
        z = zech[log[b] - la]
        return z and exp[la + z]

    def neg(self, a: int) -> int:
        exp, log, _, log_minus_one = self._tables
        return a and exp[log[a] + log_minus_one]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        exp, log, _, _ = self._tables
        return a and b and exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 1 if e == 0 else 0
        exp, log, _, _ = self._tables
        return exp[log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + repr(self))
        exp, log, _, _ = self._tables
        return exp[self.q - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def subfield(self, k: int) -> list[int]:
        """The p^k elements of GF(p^k) inside this field, for k | m, as
        ``[0, b^0, b^1, ..., b^(p^k - 2)]`` with b = g^((q-1)/(p^k-1)): the
        subfield's units are the subgroup of GF(q)* that b generates."""
        if k < 1 or self.m % k:
            raise ValueError(f"GF({self.p}^{k}) is not a subfield of {self!r}")
        exp = self._tables[0]
        return [0, *exp[:self.q - 1:(self.q - 1) // (self.p**k - 1)]]

    def frobenius(self, a: int, i: int) -> int:
        """a raised to p**i (i-fold Frobenius); identity for i % m == 0."""
        if i < 0:
            raise ValueError("frobenius power must be non-negative")
        return self.pow(a, self.p ** (i % self.m))

    # -- element construction -----------------------------------------------

    def elem(self, e: int) -> "FieldElem":
        """Element with canonical encoding ``e``."""
        if not 0 <= e < self.q:
            raise ValueError(f"encoding {e} out of range for {self!r}")
        return FieldElem(self, self.digits(e))

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
    every call; only the construction is cached.  It is checked before
    primality, since trial division of a huge p would not finish.
    """
    if type(p) is not int or p < 2:
        raise ValueError(f"p must be prime, got {p!r}")
    if type(m) is not int or m < 1:
        raise ValueError(f"extension degree must be an integer >= 1, got {m!r}")
    check_enumeration_size(p, m, f"GF({p}^{m})")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    return _build_field(p, m)


@lru_cache(maxsize=None)
def _build_field(p: int, m: int) -> FieldDescriptor:
    if m == 1:
        return FieldDescriptor(p, 1, (0, 1))
    # x divides every candidate with constant term 0, so start at 1
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
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
    except KeyError as exc:
        raise ValueError(f"malformed field document: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed field document: {exc}") from exc
    f = field_new(p, m)
    if not isinstance(modulus, (list, tuple)) or list(f.modulus) != list(modulus):
        raise ValueError(
            f"modulus {modulus} is not the canonical modulus for GF({p}^{m})"
        )
    return f
