"""Field arithmetic: construction, canonical moduli, axioms, Frobenius."""

import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcover.gf import (
    FIELD_CACHE_SIZE,
    _build_field,
    field_from_json,
    field_new,
    field_to_json,
    is_prime,
)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def brute_smallest_irreducible(p, m):
    """Independent oracle: scan monic degree-m polynomials in lex order and
    return the first with no monic divisor of degree 1..m-1, where
    divisibility is checked by exhaustive polynomial multiplication."""

    def monics(deg):
        for tail in itertools.product(range(p), repeat=deg):
            yield tail + (1,)

    for cand in monics(m):
        reducible = False
        for d1 in range(1, m):
            d2 = m - d1
            if d1 > d2:
                continue
            for f1 in monics(d1):
                for f2 in monics(d2):
                    if poly_mul(f1, f2, p) == cand:
                        reducible = True
                        break
                if reducible:
                    break
            if reducible:
                break
        if not reducible:
            return cand
    raise AssertionError("no irreducible found")


class TestFieldNew:
    def test_prime_field(self):
        f = field_new(2, 1)
        assert f.q == 2
        assert f.modulus == (0, 1)

    def test_f4_modulus_is_the_unique_irreducible_quadratic(self):
        assert field_new(2, 2).modulus == brute_smallest_irreducible(2, 2)
        assert field_new(2, 2).modulus == (1, 1, 1)

    @pytest.mark.parametrize("p,m", [(3, 2), (2, 3), (5, 2), (2, 4), (3, 3)])
    def test_modulus_matches_brute_force_scan(self, p, m):
        assert field_new(p, m).modulus == brute_smallest_irreducible(p, m)

    @pytest.mark.parametrize("p,m,modulus", [
        (2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1)),
        (3, 10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)),
        (5, 8, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
    ])
    def test_large_moduli_are_unchanged(self, p, m, modulus):
        # taken from the full lexicographic scan, which tried the p^(m-1)
        # candidates with constant term 0 first
        assert _build_field(p, m).modulus == modulus

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            field_new(4, 1)
        with pytest.raises(ValueError):
            field_new(2, 0)
        with pytest.raises(ValueError):
            field_new(2, 32)  # 2^32 over the desk bound

    def test_bound_is_read_after_the_field_is_cached(self, monkeypatch):
        field_new(2, 12)
        monkeypatch.setenv("SUBCOVER_MAX_Q_POW", "1024")
        with pytest.raises(ValueError):
            field_new(2, 12)
        with pytest.raises(ValueError):
            field_new(2, 11)
        assert field_new(2, 10).q == 1024

    def test_field_cache_is_bounded(self):
        fields = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 7)]
        assert len(fields) > FIELD_CACHE_SIZE
        built = [field_new(p, m) for p, m in fields]
        info = _build_field.cache_info()
        assert info.maxsize == FIELD_CACHE_SIZE
        assert info.currsize <= FIELD_CACHE_SIZE
        # an evicted field is rebuilt equal to its first build
        again = field_new(*fields[0])
        assert again == built[0] and again.mul(1, 1) == 1

    def test_is_prime(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                          43, 47, 53, 59]


class TestArith:
    def test_char2_addition(self):
        f = field_new(2, 1)
        assert f.add(1, 1) == 0

    def test_f4_generator_square(self):
        f = field_new(2, 2)
        x = 2
        assert f.mul(x, x) == 3  # x^2 reduces to x + 1 mod x^2+x+1

    def test_f5_division(self):
        f = field_new(5, 1)
        assert f.mul(2, 4) == 3  # oracle for the quotient below
        assert f.div(3, 2) == 4

    def test_zero_division(self):
        f2 = field_new(2, 1)
        with pytest.raises(ZeroDivisionError):
            f2.div(1, 0)

    @pytest.mark.parametrize("f", [field_new(2, 1), field_new(3, 2)])
    def test_zero_to_a_negative_power(self, f):
        assert f.pow(0, 0) == 1 and f.pow(0, 2) == 0
        with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
            f.pow(0, -1)


class TestFrobenius:
    """The i-fold Frobenius map a -> a^(p^i), as ``f.pow(a, f.p**i)``."""

    def test_zeroth_power_is_identity(self):
        f = field_new(3, 2)
        for e in range(f.q):
            assert f.pow(e, f.p**0) == e

    def test_f4_generator(self):
        f = field_new(2, 2)
        assert f.pow(2, f.p**1) == 3  # x^2 = x + 1

    def test_prime_field_fixed(self):
        f = field_new(7, 1)
        for e in range(7):
            for i in range(4):
                assert f.pow(e, f.p**i) == e

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 4)])
    def test_additive_multiplicative_and_order(self, p, m):
        f = field_new(p, m)
        for a in range(f.q):
            assert f.pow(a, p**m) == a
            for b in range(f.q):
                assert f.pow(f.add(a, b), p) == f.add(f.pow(a, p), f.pow(b, p))
                assert f.pow(f.mul(a, b), p) == f.mul(f.pow(a, p), f.pow(b, p))


ALL_SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                    (11, 1), (13, 1), (2, 4)]  # every field with q <= 16


@pytest.mark.parametrize("p,m", ALL_SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    f = field_new(p, m)
    elems = range(f.q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.q - 1) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 124), st.integers(0, 124), st.integers(0, 124))
def test_field_axioms_random_triples_f125(a, b, c):
    f = field_new(5, 3)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, b) == f.mul(b, a)
    if a:
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
def test_field_axioms_random_triples_f64(a, b, c):
    f = field_new(2, 6)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if b:
        assert f.mul(f.div(a, b), b) == a


class TestEnumerationAndEncoding:
    """Elements are enumerated as encodings 0, 1, ..., q - 1, and
    ``digits`` inverts enc(a) = sum(coeffs[i] * p**i)."""

    def test_f2(self):
        f = field_new(2, 1)
        assert [f.digits(e) for e in range(f.q)] == [(0,), (1,)]

    def test_f4_order(self):
        f = field_new(2, 2)
        elems = [f.digits(e) for e in range(f.q)]
        assert elems == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert elems[2] == (0, 1)  # the generator x

    def test_f9_count(self):
        f = field_new(3, 2)
        assert [f.digits(e) for e in range(f.q)] == [
            (a, b) for b in range(3) for a in range(3)]  # enc = a + 3 b

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (2, 4), (7, 1)])
    def test_encoding_round_trip(self, p, m):
        f = field_new(p, m)
        # the last coefficient varies slowest, as in enc's base-p digits
        want = [t[::-1] for t in itertools.product(range(p), repeat=m)]
        assert [f.digits(e) for e in range(f.q)] == want
        assert len(set(want)) == f.q


class TestJson:
    def test_round_trip(self):
        for p, m in [(2, 1), (3, 2), (2, 4)]:
            f = field_new(p, m)
            assert field_from_json(field_to_json(f)) == f

    def test_rejects_noncanonical_modulus(self):
        doc = field_to_json(field_new(2, 3))
        doc["modulus"] = [1, 1, 0, 1]  # irreducible but not the smallest
        with pytest.raises(ValueError):
            field_from_json(doc)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            field_from_json({"p": 2})

    @pytest.mark.parametrize("doc,message", [
        ({"p": 2}, "malformed field document: missing key 'm'"),
        ({"m": 1, "modulus": [0, 1]},
         "malformed field document: missing key 'p'"),
        ("GF(2)", "malformed field document: expected an object, got str"),
        ([2, 1], "malformed field document: expected an object, got list"),
    ])
    def test_malformed_message(self, doc, message):
        with pytest.raises(ValueError) as info:
            field_from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc", [
        {"p": 2, "m": True, "modulus": [0, 1]},
        {"p": 3, "m": True, "modulus": [0, 1]},
        {"p": True, "m": 1, "modulus": [0, 1]},
        {"p": 2, "m": 1.0, "modulus": [0, 1]},
    ])
    def test_rejects_bool_or_float_parameters(self, doc):
        with pytest.raises(ValueError):
            field_from_json(doc)


class TestTables:
    """The log/antilog path against schoolbook polynomial arithmetic."""

    @staticmethod
    def ref_mul(f, a, b):
        p, m = f.p, f.m
        prod = list(poly_mul(f.digits(a), f.digits(b), p))
        for i in range(len(prod) - 1, m - 1, -1):  # reduce by the monic modulus
            c = prod[i]
            for j, mc in enumerate(f.modulus):
                prod[i - m + j] = (prod[i - m + j] - c * mc) % p
        return sum(c * p**i for i, c in enumerate(prod[:m]))

    @classmethod
    def ref_pow(cls, f, a, e):
        out = 1
        for bit in bin(e)[2:]:
            out = cls.ref_mul(f, out, out)
            if bit == "1":
                out = cls.ref_mul(f, out, a)
        return out

    @staticmethod
    def ref_add(f, a, b, sign=1):
        da, db = f.digits(a), f.digits(b)
        return sum((x + sign * y) % f.p * f.p**i
                   for i, (x, y) in enumerate(zip(da, db)))

    @pytest.mark.parametrize("p,m", [(2, 8), (3, 5), (7, 2)])
    def test_log_inverts_exp(self, p, m):
        f = field_new(p, m)
        exp, log, *_ = f._tables
        assert len(exp) == 2 * (f.q - 1)
        assert sorted(exp[:f.q - 1]) == list(range(1, f.q))
        for i in range(f.q - 1):
            assert log[exp[i]] == i
            assert exp[i + f.q - 1] == exp[i]

    @pytest.mark.parametrize("p,m", [(2, 16), (3, 10), (5, 4), (11, 1), (2, 8),
                                     (257, 2)])
    def test_ops_match_polynomial_arithmetic(self, p, m):
        f = field_new(p, m)
        rng = random.Random(p * 100 + m)
        samples = [0, 1, f.q - 1] + [rng.randrange(f.q) for _ in range(60)]
        for a in samples:
            b = rng.randrange(f.q)
            assert f.mul(a, b) == self.ref_mul(f, a, b)
            assert f.add(a, b) == self.ref_add(f, a, b)
            assert f.add(a, f.neg(a)) == 0
            assert f.neg(a) == self.ref_add(f, 0, a, sign=-1)
            assert f.sub(a, b) == self.ref_add(f, a, b, sign=-1)
            e = rng.randrange(3 * f.q)
            assert f.pow(a, e) == self.ref_pow(f, a, e)
            i = rng.randrange(2 * m + 1)
            assert f.pow(a, p**i) == self.ref_pow(f, a, p**i)
            if a:
                inv = f.inv(a)
                assert self.ref_mul(f, a, inv) == 1
                assert f.pow(a, -e) == self.ref_pow(f, inv, e)
                assert f.div(b, a) == self.ref_mul(f, b, inv)

    # every block-multiply form: bit planes in 2- and 4-byte lanes, byte
    # digit streams (GF(11^4)'s sums overflow a byte unless reduced), and
    # wider digit lanes reduced element by element (m = 2 and m = 1)
    @pytest.mark.parametrize("p,m", [(257, 2), (2, 16), (3, 10), (5, 6),
                                     (2, 17), (7, 6), (11, 4), (131, 2),
                                     (65521, 1)])
    def test_tables_match_a_naive_build(self, p, m):
        f = field_new(p, m)
        q, n = f.q, f.q - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        # a constant of GF(p^m), m > 1, has order dividing p - 1 < q - 1
        g = next(a for a in range(2 if m == 1 else p, q)
                 if all(self.ref_pow(f, a, n // r) != 1 for r in primes))
        # e -> e g is GF(p)-linear: digit d of e at place j adds d times the
        # digits of x^j g, tabulated here for the low and the high half of
        # e's digits, so exp walks the powers of g one lookup pair a step
        rows = [f.digits(self.ref_mul(f, p**j, g)) for j in range(m)]

        def images(places):
            return [tuple(sum(d * row[k]
                              for d, row in zip(f.digits(v), places))
                          for k in range(m)) for v in range(p**len(places))]

        half = p**(m // 2)
        low, high = images(rows[:m // 2]), images(rows[m // 2:])
        weights = [p**k for k in range(m)]
        exp, e = [], 1
        for _ in range(n):
            exp.append(e)
            hi, lo = divmod(e, half)
            e = sum(map(operator.mul, map(p.__rmod__, map(
                operator.add, low[lo], high[hi])), weights))
        assert e == 1 and 1 not in exp[1:]
        log = [0] * q
        for i, e in enumerate(exp):
            log[e] = i
        # 1 + e changes only the constant digit of e
        zech = [] if p == 2 else [log[e - e % p + (e + 1) % p] for e in exp]
        got_exp, got_log, log_minus_one = f._tables
        got_zech = f._zech
        assert list(got_exp) == exp * 2
        assert list(got_log) == log
        assert list(got_zech) == zech
        assert log_minus_one == log[p - 1]

    # every field with byte tables, up to GF(2^8)
    @pytest.mark.parametrize("p,m", [
        (p, m) for p in range(2, 257) if is_prime(p)
        for m in range(1, 9) if p**m <= 256])
    def test_byte_tables_match_add_and_mul(self, p, m):
        f = field_new(p, m)
        muls = f.byte_tables
        assert len(muls) == f.q
        for a in range(f.q):
            assert len(muls[a]) == 256
            assert list(muls[a][:f.q]) == [f.mul(a, x) for x in range(f.q)]
            assert not any(muls[a][f.q:])

    @pytest.mark.parametrize("p,m", [(257, 1), (2, 9)])
    def test_no_byte_tables_above_256_elements(self, p, m):
        assert field_new(p, m).byte_tables is None

    def test_tables_are_built_on_first_multiplication(self):
        _build_field.cache_clear()
        f = field_new(3, 4)
        assert "_tables" not in vars(f)
        f.digits(7)
        field_from_json(field_to_json(f))
        assert "exp" not in vars(f)
        # a subfield reads exp alone; the first product scatters log
        assert f.subfield(2)[:2] == [0, 1]
        assert "exp" in vars(f) and "_tables" not in vars(f)
        assert f.mul(5, 7) == self.ref_mul(f, 5, 7)
        assert "_tables" in vars(f)


class TestSubfield:
    @staticmethod
    def least_primitive(f):
        """Smallest encoding of multiplicative order q - 1, by trial."""
        return next(g for g in range(1, f.q)
                    if len({f.pow(g, e) for e in range(f.q - 1)}) == f.q - 1)

    @pytest.mark.parametrize("p,m,k", [
        (2, 8, 1), (2, 8, 2), (2, 8, 4), (2, 8, 8), (3, 4, 1), (3, 4, 2),
        (5, 2, 1),
    ])
    def test_elements_are_the_frobenius_fixed_points(self, p, m, k):
        f = field_new(p, m)
        sub = f.subfield(k)
        assert len(sub) == len(set(sub)) == p**k
        assert set(sub) == {a for a in range(f.q) if f.pow(a, p**k) == a}
        assert sub[:2] == [0, 1]
        b = f.pow(self.least_primitive(f), (f.q - 1) // (p**k - 1))
        assert sub[1:] == [f.pow(b, j) for j in range(p**k - 1)]

    @pytest.mark.parametrize("k", [0, 3, 5, -2, 16])
    def test_rejects_a_non_divisor(self, k):
        with pytest.raises(ValueError):
            field_new(2, 8).subfield(k)
