"""Sparse exact polynomials: ring laws, division, gcd normal form."""

import math
import random
from fractions import Fraction

import pytest

from confalg.field import RationalFunction
from confalg.poly import (
    NVARS,
    Polynomial,
    _grlex_key,
    _univar_rem,
    exact_div,
    integer_content,
    poly_gcd,
)

P0 = Polynomial.var(0)
P1 = Polynomial.var(1)
P2 = Polynomial.var(2)
P3 = Polynomial.var(3)
ONE = Polynomial.one()
ZERO = Polynomial.zero()


def _rand_poly(rng, nterms=4, maxdeg=2, span=6, maxden=3):
    out = ZERO
    for _ in range(rng.randint(1, nterms)):
        term = ONE * Fraction(rng.randint(-span, span), rng.randint(1, maxden))
        for v in range(4):
            term = term * Polynomial.var(v, rng.randint(0, maxdeg)) if rng.random() < 0.6 else term
        out = out + term
    return out


# ---------------------------------------------------------------------------
# construction and normal form
# ---------------------------------------------------------------------------

def test_zero_terms_are_dropped():
    assert (P0 - P0).is_zero()
    assert (P0 - P0) == ZERO
    assert Polynomial.const(0) is ZERO
    assert not (P0 + P1).is_zero()


def test_constructors():
    assert Polynomial.const(Fraction(5, 3)).terms == {(0, 0, 0, 0): Fraction(5, 3)}
    assert Polynomial.var(2, 3) == P2 * P2 * P2
    assert ONE.is_const() and not P0.is_const()


def test_equality_and_hash():
    a = P0 * P1 + ONE * 2
    b = ONE * 2 + P1 * P0
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_graded_lex_leading_term():
    # total degree dominates, ties break lexicographically with the first
    # symbol largest
    e, c = (P3 * P3 + P0).leading()
    assert e == (0, 0, 0, 2) and c == 1
    e, _ = (P0 * P0 + P0 * P1).leading()
    assert e == (2, 0, 0, 0)
    e, _ = (P1 * P2 + P2 * P2).leading()
    assert e == (0, 1, 1, 0)


def test_degrees():
    p = P0 * P1 * P1 + P3
    assert p.degree_in(1) == 2
    assert p.degree_in(2) == 0
    assert ZERO.degree_in(0) == -1


# ---------------------------------------------------------------------------
# ring laws
# ---------------------------------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(20260920)
    for _ in range(300):
        a = _rand_poly(rng)
        b = _rand_poly(rng)
        c = _rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # __sub__ shares __add__'s body with a sign, negating no copy
        for x, y in ((a, b), (a, a), (a, ZERO), (ZERO, a), (a, a * 2)):
            assert x - y == x + (-y)
        assert (a - a).is_zero()
        assert a + ZERO == a and a * ONE == a
        assert (a * ZERO).is_zero()


def test_power_matches_repeated_product():
    rng = random.Random(20260921)
    for _ in range(40):
        a = _rand_poly(rng, nterms=3, maxdeg=1)
        acc = ONE
        for n in range(5):
            assert a**n == acc
            acc = acc * a
    with pytest.raises(ValueError):
        P0**-1


def test_power_makes_no_wasted_products(monkeypatch):
    p = P0 + P1 * 2 - ONE
    assert p**1 is p
    calls = [0]
    product = Polynomial.__mul__

    def counted(self, other):
        calls[0] += 1
        return product(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for n in range(1, 40):
        calls[0] = 0
        p**n
        assert calls[0] == n.bit_length() - 1 + bin(n).count("1") - 1


def test_derivative_rules():
    assert (P0 * P0 * P1).derivative(0) == P0 * P1 * 2
    assert (P0 * P0 * P1).derivative(2).is_zero()
    rng = random.Random(20260922)
    for _ in range(100):
        a = _rand_poly(rng)
        b = _rand_poly(rng)
        for v in range(4):
            assert (a * b).derivative(v) == a.derivative(v) * b + a * b.derivative(v)
            assert (a + b).derivative(v) == a.derivative(v) + b.derivative(v)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def test_pretty_format():
    assert (P0 * P0 - P1 * P1).pretty() == "P[0]^2 - P[1]^2"
    assert (P1 * Fraction(1, 2)).pretty() == "1/2*P[1]"
    assert (-P0).pretty() == "-P[0]"
    assert ZERO.pretty() == "0"
    assert Polynomial.const(Fraction(-3, 2)).pretty() == "-3/2"
    assert (P0 * P1 + ONE * 7).pretty() == "P[0]*P[1] + 7"


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def test_exact_div_recovers_quotient():
    rng = random.Random(20260923)
    for _ in range(200):
        f = _rand_poly(rng)
        g = _rand_poly(rng)
        if g.is_zero():
            continue
        q = exact_div(f * g, g)
        assert q == f


def test_exact_div_detects_indivisibility():
    assert exact_div(P0 + ONE, P1) is None
    assert exact_div(P0, P0 * P0) is None
    assert exact_div(P0 * P1 + ONE, P0) is None


def test_exact_div_edges():
    assert exact_div(ZERO, P0).is_zero()
    with pytest.raises(ZeroDivisionError):
        exact_div(P0, ZERO)


def test_integer_content():
    assert integer_content(P0 * 6 + P1 * 4) == 2
    assert integer_content(P0 * Fraction(3, 2) + ONE * Fraction(9, 4)) == Fraction(3, 4)
    assert integer_content(ZERO) == 1


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------

# pairwise coprime seed polynomials for planted-factor checks
_COPRIME = (P0, P1 + ONE, P0 + P1, P2 - P3, P0 * P1 + ONE, P1 + P2 + P3)

_FACTORS = (P0, P2, P0 + P1, P0 - P3, P1 + P2, P0 + P1 + P2, P0 * P3 + ONE)


def test_gcd_edges_and_normal_form():
    assert poly_gcd(ZERO, ZERO).is_zero()
    assert poly_gcd(P0 * -3, ZERO) == P0
    assert poly_gcd(ZERO, P1 * 5 + P2 * 10) == P1 + P2 * 2
    # rational overall content never survives: constants are units
    assert poly_gcd(ONE * 6, ONE * 4) == ONE
    assert poly_gcd(P0 * 2, ONE * 4) == ONE
    assert poly_gcd(P0 * Fraction(1, 2), P0 * 3) == P0


def test_gcd_monomials():
    a = P0 * P0 * P1 * 6
    b = P0 * P2 * 4
    assert poly_gcd(a, b) == P0
    assert poly_gcd(P0 * P1 * P2 * P3, P1 * P3) == P1 * P3


def test_gcd_of_coprime_pairs_is_one():
    for i, f in enumerate(_COPRIME):
        for g in _COPRIME[i + 1:]:
            assert poly_gcd(f, g) == ONE, (f, g)


def test_gcd_planted_common_factor():
    # gcd(f*h, g*h) with coprime f, g must be exactly the canonical form of
    # h; poly_gcd(h, h) is that canonical form by definition
    rng = random.Random(20260924)
    for k in range(120):
        f = _COPRIME[k % len(_COPRIME)]
        g = _COPRIME[(k + 1 + k // len(_COPRIME)) % len(_COPRIME)]
        if poly_gcd(f, g) != ONE:
            continue
        h = ONE * Fraction(rng.randint(1, 4))
        for _ in range(rng.randint(1, 2)):
            h = h * _FACTORS[rng.randrange(len(_FACTORS))]
        got = poly_gcd(f * h, g * h)
        assert got == poly_gcd(h, h), (f.pretty(), g.pretty(), h.pretty())


def test_gcd_divides_and_is_canonical():
    rng = random.Random(20260925)
    for _ in range(150):
        a = _rand_poly(rng, nterms=3, maxdeg=1)
        b = _rand_poly(rng, nterms=3, maxdeg=1)
        h = _FACTORS[rng.randrange(len(_FACTORS))]
        f = a * h
        g = b * h
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        assert poly_gcd(f, g) == poly_gcd(g, f)
        assert exact_div(f, d) is not None
        assert exact_div(g, d) is not None
        # the planted factor must be inside the gcd
        assert exact_div(d, poly_gcd(h, h)) is not None
        # canonical output: coprime integer coefficients, positive leading
        assert integer_content(d) == 1
        _, lead = d.leading()
        assert lead > 0


def test_gcd_is_associative_enough():
    # gcd(gcd(a, b), c) == gcd(a, gcd(b, c)) on planted products
    rng = random.Random(20260926)
    for _ in range(40):
        h = _FACTORS[rng.randrange(len(_FACTORS))]
        a = _COPRIME[rng.randrange(len(_COPRIME))] * h
        b = _COPRIME[rng.randrange(len(_COPRIME))] * h
        c = _COPRIME[rng.randrange(len(_COPRIME))] * h
        assert poly_gcd(poly_gcd(a, b), c) == poly_gcd(a, poly_gcd(b, c))


# ---------------------------------------------------------------------------
# the integer fast paths against the Fraction-only code they replaced
# ---------------------------------------------------------------------------

def _exact_div_reference(f, d):
    """exact_div as it was with Fraction coefficients throughout (test-only)."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return ZERO
    ed, cd = d.leading()
    cd = Fraction(cd)
    quot = {}
    rem = dict(f.terms)
    while rem:
        er = max(rem, key=_grlex_key)
        cr = rem[er]
        eq = tuple(er[i] - ed[i] for i in range(NVARS))
        if any(x < 0 for x in eq):
            return None
        cq = cr / cd
        quot[eq] = cq
        for e2, c2 in d.terms.items():
            e = tuple(eq[i] + e2[i] for i in range(NVARS))
            s = rem.get(e, Fraction(0)) - cq * c2
            if s:
                rem[e] = s
            elif e in rem:
                del rem[e]
    return Polynomial(quot)


def _integer_content_reference(p):
    """integer_content as it was, always a Fraction (test-only)."""
    if p.is_zero():
        return Fraction(1)
    num = 0
    den = 1
    for c in p.terms.values():
        c = Fraction(c)
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    return Fraction(num, den)


def _fraction_rem_reference(a, b):
    """Remainder of a by b over the rationals, as Fractions (test-only)."""
    r = [Fraction(x) for x in a]
    while len(r) >= len(b):
        k = len(r) - len(b)
        q = r[-1] / b[-1]
        for i in range(len(b) - 1):
            r[i + k] -= q * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _rand_pairs(rng):
    # integer and rational coefficients, divisible and indivisible pairs
    for k in range(240):
        maxden = 1 if k % 2 else 3
        f = _rand_poly(rng, maxden=maxden)
        g = _rand_poly(rng, nterms=3, maxden=maxden)
        if g.is_zero():
            continue
        yield f, g
        yield f * g, g
        yield f * g * Fraction(1, rng.randint(2, 5)), g * rng.randint(2, 4)


def test_exact_div_matches_fraction_reference():
    rng = random.Random(20260927)
    indivisible = 0
    for f, g in _rand_pairs(rng):
        got = exact_div(f, g)
        want = _exact_div_reference(f, g)
        assert got == want, (f.pretty(), g.pretty())
        indivisible += got is None
    assert indivisible > 50


def test_exact_div_nonintegral_quotient():
    assert exact_div(P0 + ONE, P0 * 2 + ONE * 2) == Polynomial.const(Fraction(1, 2))
    q = exact_div(P0 * 3 + P1 * 2, ONE * 4)
    assert q.terms == {(1, 0, 0, 0): Fraction(3, 4), (0, 1, 0, 0): Fraction(1, 2)}
    assert exact_div(P0 * P1 * 2 - P1, P0 * 4 - ONE * 2) == P1 * Fraction(1, 2)
    assert exact_div(P0 * 2 + ONE, P0 * 2) is None


def test_integer_content_matches_fraction_reference():
    rng = random.Random(20260928)
    for f, g in _rand_pairs(rng):
        for p in (f, g):
            got = integer_content(p)
            assert got == _integer_content_reference(p)
            assert type(got) is (int if got.denominator == 1 else Fraction)


def test_gcd_of_scaled_inputs():
    # rational scalings of either side never change the canonical gcd
    rng = random.Random(20260929)
    for _ in range(80):
        h = _FACTORS[rng.randrange(len(_FACTORS))]
        f = _rand_poly(rng, nterms=3, maxdeg=1) * h
        g = _rand_poly(rng, nterms=3, maxdeg=1) * h
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        for k, m in ((2, 3), (Fraction(1, 6), 5), (Fraction(-4, 9), Fraction(7, 2))):
            assert poly_gcd(f * k, g * m) == d
        assert _exact_div_reference(f, d) is not None
        assert _exact_div_reference(g, d) is not None


def test_univariate_remainder_is_a_multiple_of_the_rational_one():
    rng = random.Random(20260930)
    for _ in range(400):
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        if b[-1] == 0:
            continue
        a = [rng.randint(-9, 9) for _ in range(rng.randint(len(b), 7))]
        got = _univar_rem(a, b)
        want = _fraction_rem_reference(a, b)
        assert len(got) == len(want)
        if want:
            ratio = got[-1] / want[-1]
            assert ratio and all(x == ratio * y for x, y in zip(got, want))


# ---------------------------------------------------------------------------
# one normal form however the coefficients were spelled
# ---------------------------------------------------------------------------

def test_fraction_and_int_spellings_are_one_polynomial():
    e = (1, 2, 0, 1)
    a = Polynomial({e: Fraction(3)})
    b = Polynomial({e: 3})
    assert a == b and hash(a) == hash(b)
    assert a.terms == b.terms
    assert type(a.terms[e]) is type(b.terms[e]) is int


def test_fraction_and_int_spellings_are_one_rational_function():
    def parts(spell):
        num = Polynomial({(1, 0, 0, 0): spell(4), (0, 1, 0, 0): spell(-6)})
        den = Polynomial({(0, 0, 1, 0): spell(8), (0, 0, 0, 0): spell(2)})
        return num, den

    x = RationalFunction(*parts(Fraction))
    y = RationalFunction(*parts(int))
    assert x == y and hash(x) == hash(y)
    assert x.num.terms == y.num.terms and x.den.terms == y.den.terms
    assert all(type(c) is int for c in (*x.num.terms.values(), *x.den.terms.values()))


def test_fraction_and_int_spellings_give_one_gcd():
    spelled = {
        (5, 0, 1, 0): 7, (0, 3, 0, 2): -5, (0, 0, 0, 0): 1,
    }
    other = {(5, 0, 1, 0): 7, (0, 0, 4, 1): 11}
    f_frac = Polynomial({e: Fraction(c) for e, c in spelled.items()})
    g_frac = Polynomial({e: Fraction(c) for e, c in other.items()})
    f_int, g_int = Polynomial(spelled), Polynomial(other)
    assert poly_gcd(f_int, g_int) == poly_gcd(f_frac, g_frac)
