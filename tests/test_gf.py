"""Field arithmetic: construction, canonical moduli, axioms, Frobenius."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcover.gf import (
    FieldElem,
    _build_field,
    arith,
    enumerate_field,
    field_from_json,
    field_new,
    field_to_json,
    frobenius,
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

    def test_is_prime(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                          43, 47, 53, 59]


class TestArith:
    def test_char2_addition(self):
        f = field_new(2, 1)
        assert arith("add", f.one, f.one) == f.zero

    def test_f4_generator_square(self):
        f = field_new(2, 2)
        x = f.elem(2)
        assert (x * x).enc == 3  # x^2 reduces to x + 1 mod x^2+x+1

    def test_f5_division(self):
        f = field_new(5, 1)
        assert f.mul(2, 4) == 3  # oracle for the quotient below
        assert arith("div", f.elem(3), f.elem(2)) == f.elem(4)

    def test_field_mismatch_and_zero_division(self):
        f2, f3 = field_new(2, 1), field_new(3, 1)
        with pytest.raises(ValueError):
            arith("add", f2.one, f3.one)
        with pytest.raises(ZeroDivisionError):
            arith("div", f2.one, f2.zero)
        with pytest.raises(ValueError):
            arith("xor", f2.one, f2.one)


class TestFrobenius:
    def test_zeroth_power_is_identity(self):
        f = field_new(3, 2)
        for e in range(f.q):
            assert frobenius(f.elem(e), 0) == f.elem(e)

    def test_f4_generator(self):
        f = field_new(2, 2)
        assert frobenius(f.elem(2), 1).enc == 3  # x^2 = x + 1

    def test_prime_field_fixed(self):
        f = field_new(7, 1)
        for e in range(7):
            for i in range(4):
                assert frobenius(f.elem(e), i).enc == e

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 4)])
    def test_additive_multiplicative_and_order(self, p, m):
        f = field_new(p, m)
        for a in range(f.q):
            assert f.frobenius(a, m) == a
            for b in range(f.q):
                assert f.frobenius(f.add(a, b), 1) == f.add(
                    f.frobenius(a, 1), f.frobenius(b, 1)
                )
                assert f.frobenius(f.mul(a, b), 1) == f.mul(
                    f.frobenius(a, 1), f.frobenius(b, 1)
                )


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
    def test_f2(self):
        f = field_new(2, 1)
        assert [e.enc for e in enumerate_field(f)] == [0, 1]

    def test_f4_order(self):
        f = field_new(2, 2)
        elems = list(enumerate_field(f))
        assert [e.enc for e in elems] == [0, 1, 2, 3]
        assert elems[2].coeffs == (0, 1)  # the generator x

    def test_f9_count(self):
        f = field_new(3, 2)
        assert [e.enc for e in enumerate_field(f)] == list(range(9))

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 2), (2, 4), (7, 1)])
    def test_encoding_round_trip(self, p, m):
        f = field_new(p, m)
        seen = set()
        for e in range(f.q):
            elem = f.elem(e)
            assert elem.enc == e
            assert f.digits(e) == elem.coeffs
            seen.add(elem.coeffs)
        assert len(seen) == f.q

    def test_elem_validation(self):
        f = field_new(3, 2)
        with pytest.raises(ValueError):
            f.elem(9)
        with pytest.raises(ValueError):
            FieldElem(f, (3, 0))
        with pytest.raises(ValueError):
            FieldElem(f, (1,))


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

    @pytest.mark.parametrize("p,m", [(2, 16), (3, 10), (5, 4), (11, 1), (2, 8)])
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
            assert f.frobenius(a, i) == self.ref_pow(f, a, p**i)
            if a:
                inv = f.inv(a)
                assert self.ref_mul(f, a, inv) == 1
                assert f.pow(a, -e) == self.ref_pow(f, inv, e)
                assert f.div(b, a) == self.ref_mul(f, b, inv)

    def test_tables_are_built_on_first_multiplication(self):
        _build_field.cache_clear()
        f = field_new(3, 4)
        assert "_tables" not in vars(f)
        f.elem(5)
        f.digits(7)
        field_from_json(field_to_json(f))
        assert "_tables" not in vars(f)
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
        assert set(sub) == {a for a in range(f.q) if f.frobenius(a, k) == a}
        assert sub[:2] == [0, 1]
        b = f.pow(self.least_primitive(f), (f.q - 1) // (p**k - 1))
        assert sub[1:] == [f.pow(b, j) for j in range(p**k - 1)]

    @pytest.mark.parametrize("k", [0, 3, 5, -2, 16])
    def test_rejects_a_non_divisor(self, k):
        with pytest.raises(ValueError):
            field_new(2, 8).subfield(k)
