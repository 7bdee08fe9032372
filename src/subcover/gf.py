"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^m).

Elements of GF(p^m) are residue-class polynomials over GF(p), stored as
coefficient tuples with the constant term first.  Every element also has a
canonical integer encoding enc(a) = sum(coeffs[i] * p**i), a bijection onto
[0, q) that fixes serialization and enumeration order.  The descriptor's
arithmetic methods (`add`, `mul`, ...) work directly on these integer
encodings, which are the only form of an element the package uses.

Every (p, m) takes one table-driven path, to the base of the least
primitive element g (smallest encoding).  The antilog table ``exp`` is
built first, when an operation first reads it, by doubling a block of
powers of g with whole-block big-int operations; the log table is one
scatter of ``exp``, built on the first operation that reads it, so mul,
div, inv, pow and neg are lookups, while ``subfield`` and the spread
cosets read ``exp`` alone.
Addition is XOR of encodings in characteristic 2 and uses Zech logarithms
for odd p: g^a + g^b = g^(a + Z(b - a)), 1 + g^n = g^Z(n), a table built
on the first ``add`` of two nonzero elements.
While q <= 256, ``byte_tables`` writes ``mul`` out as one
``bytes.translate`` table per element, which scales a whole row at a time:
a line's basis, a span block's rows, a row of an elimination.

The modulus of GF(p^m) is always the lexicographically smallest monic
irreducible polynomial of degree m over GF(p) (coefficient-tuple order,
constant term first), so two descriptors for the same (p, m) are
interchangeable.  For m = 1 the modulus is the polynomial x.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import isqrt
from sys import byteorder

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


def base_digits(e: int, base: int, count: int) -> tuple[int, ...]:
    """The ``count`` lowest digits of e in base ``base``, lowest first."""
    out = []
    for _ in range(count):
        e, r = divmod(e, base)
        out.append(r)
    return tuple(out)


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
        return base_digits(e, self.p, self.m)

    # -- log/antilog tables -------------------------------------------------

    @cached_property
    def exp(self) -> array:
        """``exp[i] = enc(g^i)`` over two periods, with g the least primitive
        element; entries take 2 bytes while q <= 2^16, 4 above.

        The block g^0, ..., g^(k-1) times c = g^k is g^k, ..., g^(2k-1),
        and e -> c e is GF(p)-linear on base-p digits, its coefficients the
        digits of c x^j (j < m), which follow the block as its tail and so
        become (c^2) x^j.  A doubling is a few big-int operations on lanes
        in the machine's byte order.  In characteristic 2 the block is one
        int of encodings, and c e is the XOR over the bit planes j of bit j
        times enc(c x^j).  For odd p it is m streams, one per digit place,
        and digit t of c e is the sum over j of digit t of c x^j times
        digit j of e, taken mod p before a product might overflow a lane
        and at the end: by one ``translate`` on byte lanes (p <= 13),
        element by element on wider ones.
        """
        p, q, m, modulus = self.p, self.q, self.m, self.modulus
        n = q - 1
        # g generates GF(q)* iff g^(n/r) != 1 for every prime r dividing n
        primes = {d for r in range(1, isqrt(n) + 1) if n % r == 0
                  for d in (r, n // r) if is_prime(d)}
        for g in range(1, q):
            # g's digits without trailing zeros, so each product is short
            c = _poly_rem(self.digits(g), modulus, p)
            if all(_poly_pow(c, n // r, modulus, p) != (1,) for r in primes):
                break
        rows = [c]  # the digits of g x^j for j < m
        for _ in range(1, m):
            rows.append(_poly_rem((0, *rows[-1]), modulus, p))
        rows = [row + (0,) * (m - len(row)) for row in rows]
        code = "H" if q <= 1 << 16 else "I"
        size = array(code).itemsize
        if p == 2:
            lane, one = size, (1).to_bytes(size, byteorder)
            streams, tails = [one], [array(code, [sum(
                d << t for t, d in enumerate(row)) for row in rows]).tobytes()]

            def times(ins):
                block = int.from_bytes(ins[0], byteorder)
                ones = int.from_bytes(one * (len(ins[0]) // size), byteorder)
                out = 0
                for j, row in enumerate(array(code, ins[0][-m * size:])):
                    out ^= (block >> j & ones) * row
                return [out.to_bytes(len(ins[0]), byteorder)]
        else:
            # a lane holds one product past a digit below p
            lane = next(w for w in (1, 2, 4, 8) if p * (p - 1) < 256**w)
            digit = "BHIQ"[lane.bit_length() - 1]
            streams = [(t == 0).to_bytes(lane, byteorder) for t in range(m)]
            tails = [array(digit, col).tobytes() for col in zip(*rows)]
            # x -> x % p, for byte lanes
            mod = lane == 1 and (bytes(range(p)) * (256 // p + 1))[:256]

            def reduce(acc, nbytes):
                if lane == 1:
                    return acc.to_bytes(nbytes, byteorder).translate(mod)
                return array(digit, [x % p for x in array(
                    digit, acc.to_bytes(nbytes, byteorder))]).tobytes()

            def times(ins):
                digits = [int.from_bytes(s, byteorder) for s in ins]
                out = []
                for s in ins:
                    acc = peak = 0  # peak bounds every lane of acc
                    # digit t of c x^j, j < m, from the tail of stream t
                    for a, e in zip(array(digit, s[-m * lane:]), digits):
                        if a:
                            if peak + a * (p - 1) >= 256**lane:
                                acc, peak = int.from_bytes(
                                    reduce(acc, len(s)), byteorder), p - 1
                            acc, peak = acc + a * e, peak + a * (p - 1)
                    out.append(reduce(acc, len(s)))
                return out
        # the block is g^0, ..., g^(k-1); the last pass takes only the
        # part of it that completes the n powers
        k = 1
        while k < n:
            cut = min(k, n - k) * lane
            out = times([s[:cut] + t for s, t in zip(streams, tails)])
            streams = [s + o[:cut] for s, o in zip(streams, out)]
            tails = [o[cut:] for o in out]
            k += cut // lane
        # widen each stream's lanes to the table's, weighted by p^t
        little, total = byteorder == "little", 0
        for t, s in enumerate(streams):
            wide = bytearray(n * size)
            for b in range(min(lane, size)):  # each digit < p < 256^size
                wide[b if little else size - 1 - b::size] = s[
                    b if little else lane - 1 - b::lane]
            total += int.from_bytes(wide, byteorder) * p**t
        return array(code, total.to_bytes(n * size, byteorder)) * 2

    @cached_property
    def _tables(self) -> tuple[array, array, int]:
        """``(exp, log, log(-1))``: ``log[enc(g^i)] = i`` and ``log[0] = 0``,
        one scatter of ``exp`` on the first operation that reads it.  -1 is
        p - 1, so log(-1) is (q-1)/2 for odd p and 0 for p = 2."""
        exp, q = self.exp, self.q
        log = array(exp.typecode, [0]) * q
        for i, e in enumerate(exp[:q - 1]):
            log[e] = i
        return exp, log, log[self.p - 1]

    @cached_property
    def _zech(self) -> array:
        """``zech[n] = log(1 + g^n)`` for odd p, 0 exactly where 1 + g^n = 0
        (empty in characteristic 2, which adds by XOR), built on the first
        ``add`` that reads it."""
        exp, log, _ = self._tables
        p = self.p
        # 1 + e changes only the constant digit of e
        return array(log.typecode, () if p == 2 else
                     (log[e - e % p + (e + 1) % p]
                      for e in itertools.islice(exp, self.q - 1)))

    @cached_property
    def byte_tables(self) -> list[bytes] | None:
        """``muls`` for ``bytes.translate`` while q <= 256, else None.

        ``muls[c]`` maps x to c x, as 256-byte tables whose entries past q
        are 0.  For c = g^k and x = g^i, c x = exp[k + i], so ``muls[c]``
        is the logs of 1, ..., q - 1 translated by ``exp[k:k + q - 1]``,
        after an entry 0 for x = 0.
        """
        q = self.q
        if q > 256:
            return None
        exp, log, _ = self._tables
        exp = bytes(exp.tolist())
        logs = log.tolist()
        units = bytes(logs[1:])
        pad, short = bytes(256 - q), bytes(257 - q)
        return [bytes(256)] + [
            b"\0" + units.translate(exp[k:k + q - 1] + short) + pad
            for k in logs[1:]]

    # -- arithmetic on integer encodings ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not (a and b):
            return a or b
        exp, log, _ = self._tables
        la = log[a]
        # g^la + g^lb = g^(la + zech[lb - la]); zech has q - 1 entries, so
        # a negative difference wraps modulo q - 1.
        z = self._zech[log[b] - la]
        return z and exp[la + z]

    def neg(self, a: int) -> int:
        exp, log, log_minus_one = self._tables
        return a and exp[log[a] + log_minus_one]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        exp, log, _ = self._tables
        return a and b and exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 1 if e == 0 else 0
        exp, log, _ = self._tables
        return exp[log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + repr(self))
        exp, log, _ = self._tables
        return exp[self.q - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def subfield(self, k: int) -> list[int]:
        """The p^k elements of GF(p^k) inside this field, for k | m, as
        ``[0, b^0, b^1, ..., b^(p^k - 2)]`` with b = g^((q-1)/(p^k-1)): the
        subfield's units are the subgroup of GF(q)* that b generates."""
        if k < 1 or self.m % k:
            raise ValueError(f"GF({self.p}^{k}) is not a subfield of {self!r}")
        exp = self.exp
        return [0, *exp[:self.q - 1:(self.q - 1) // (self.p**k - 1)]]


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


# Descriptors kept by ``_build_field``, each with its log/antilog tables
# (12-16 MiB near q = 2^20) once used; a field used only for spreads and
# subfields holds ``exp`` alone (8 MiB near q = 2^20).  The largest
# perfbench pass builds 13 distinct fields, so none is built twice within
# one.
FIELD_CACHE_SIZE = 16


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _build_field(p: int, m: int) -> FieldDescriptor:
    if m == 1:
        return FieldDescriptor(p, 1, (0, 1))
    # x divides every candidate with constant term 0, so start at 1
    for tail in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        candidate = tail + (1,)
        if _is_irreducible(candidate, p):
            return FieldDescriptor(p, m, candidate)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def field_to_json(f: FieldDescriptor) -> dict:
    return {"p": f.p, "m": f.m, "modulus": list(f.modulus)}


def json_int(value, what: str, minimum: int) -> int:
    """An integer read from a JSON document; a bool, any other type, or a
    value below ``minimum`` raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    return value


def json_fields(doc, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``doc``.  A document that
    is not an object, or lacks a key, raises ValueError naming the document
    kind ``what`` and the key, never the document itself."""
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what} document: expected an object, "
                         f"got {type(doc).__name__}")
    try:
        return [doc[key] for key in keys]
    except KeyError as exc:
        raise ValueError(f"malformed {what} document: missing key "
                         f"{exc.args[0]!r}") from None


def field_from_json(doc) -> FieldDescriptor:
    """Parse a field document, rejecting anything non-canonical: p, m and
    the modulus entries are plain ints, so 1.0 and True are not 1."""
    p, m, modulus = json_fields(doc, "field", "p", "m", "modulus")
    f = field_new(p, m)
    if (not isinstance(modulus, (list, tuple))
            or list(f.modulus) != list(modulus)
            or set(map(type, modulus)) != {int}):
        raise ValueError(
            f"modulus {modulus} is not the canonical modulus for GF({p}^{m})"
        )
    return f
