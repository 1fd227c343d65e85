"""Exact coefficient arithmetic: polynomials, reduced rational functions,
and the quadratic extension by the mass symbol."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import partial

from confalg.errors import DivisionByZero
from confalg.field import (
    FE_M,
    FE_ONE,
    FE_Q,
    FE_ZERO,
    Q_POLY,
    RF_ZERO,
    FieldElem,
    RationalFunction,
    monomial_partial,
    product_sum,
    scaled_sum,
)
from confalg.poly import (
    Polynomial,
    certify_or_split,
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


def frac(n, d=1):
    return Fraction(n, d)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_ring_basics():
    assert P0 + P1 == P1 + P0
    assert (P0 + P1) * (P0 - P1) == P0 * P0 - P1 * P1
    assert P0 * ZERO == ZERO
    assert P0 ** 3 == P0 * P0 * P0
    assert (P0 + ONE) ** 2 == P0 * P0 + P0 * Fraction(2) + ONE


def test_poly_no_zero_terms_stored():
    p = P0 + P1 - P0 - P1
    assert p.is_zero()
    assert p.terms == {}


def test_poly_grlex_leading():
    # graded lex with P0 > P1 > P2 > P3: degree first, then lexicographic
    p = P3 * P3 * P3 + P0 * P1
    exps, coeff = p.leading()
    assert exps == (0, 0, 0, 3)
    q = P0 * P1 + P2 * P2
    assert q.leading()[0] == (1, 1, 0, 0)


def test_poly_derivative():
    p = P0 * P0 * P1 + P2
    assert p.derivative(0) == P0 * P1 * Fraction(2)
    assert p.derivative(1) == P0 * P0
    assert p.derivative(3) == ZERO


def test_exact_div():
    assert exact_div(P0 * P0 - P1 * P1, P0 - P1) == P0 + P1
    assert exact_div(ZERO, P0) == ZERO
    assert exact_div(P0 + P1, P2) is None
    with pytest.raises(ZeroDivisionError):
        exact_div(P0, ZERO)


def test_integer_content():
    assert integer_content(P0 * Fraction(6) + P1 * Fraction(4)) == 2
    assert integer_content(P0 * Fraction(1, 2) + P1 * Fraction(1, 3)) == Fraction(1, 6)


def test_gcd_examples():
    assert poly_gcd(P0 * P0 - P1 * P1, P0 - P1) == P0 - P1
    assert poly_gcd(P0 * P1, P1 * P2) == P1
    assert poly_gcd(ZERO, P0) == P0
    g = poly_gcd(Q_POLY, P0 - P1)
    assert g.is_const()


def _rand_poly(rng, max_terms=3, max_deg=2):
    n = rng.randint(0, max_terms)
    p = ZERO
    for _ in range(n):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(4)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + Polynomial({tuple(exps): Fraction(1)}) * c
    return p


def test_gcd_divides_and_is_symmetric():
    rng = random.Random(101)
    for _ in range(300):
        f = _rand_poly(rng)
        g = _rand_poly(rng)
        d = poly_gcd(f, g)
        assert d == poly_gcd(g, f)
        if d.is_zero():
            assert f.is_zero() and g.is_zero()
            continue
        assert exact_div(f, d) is not None
        assert exact_div(g, d) is not None


def test_gcd_common_factor_cancels_in_rf():
    # reducing (p*r)/(q*r) must give the same normal form as p/q
    rng = random.Random(102)
    for _ in range(300):
        p = _rand_poly(rng)
        q = _rand_poly(rng)
        r = _rand_poly(rng)
        if q.is_zero() or r.is_zero():
            continue
        assert RationalFunction(p * r, q * r) == RationalFunction(p, q)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_rf_normalize_cancels_polynomial_factor():
    rf = RationalFunction(P0 * P0 - P1 * P1, P0 - P1)
    assert rf.num == P0 + P1
    assert rf.den == ONE


def test_rf_normalize_zero():
    rf = RationalFunction(ZERO, P2)
    assert rf.num == ZERO
    assert rf.den == ONE


def test_rf_normalize_content():
    rf = RationalFunction(P0 * P1 * Fraction(2), P1 * Fraction(4))
    assert rf.num == P0
    assert rf.den == Polynomial.const(Fraction(2))


def test_rf_denominator_sign_normalized():
    rf = RationalFunction(P1, -P0)
    assert rf.den.leading()[1] > 0
    assert rf == RationalFunction(-P1, P0)


def test_rf_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        RationalFunction(P0, ZERO)
    with pytest.raises(DivisionByZero):
        RationalFunction.from_poly(P0).inv() * RationalFunction(ZERO, ONE).inv()


def test_rf_field_ops():
    half = RationalFunction.const(Fraction(1, 2))
    x = RationalFunction(P0, P1)
    assert x * x.inv() == RationalFunction.from_poly(ONE)
    assert x + (-x) == RationalFunction.from_poly(ZERO)
    assert (x + half) - half == x


# ---------------------------------------------------------------------------
# quadratic extension
# ---------------------------------------------------------------------------

def test_mass_squares_to_q():
    assert FE_M * FE_M == FE_Q
    assert FE_Q == FieldElem.from_poly(
        P0 * P0 - P1 * P1 - P2 * P2 - P3 * P3
    )


def test_mass_inverse():
    minv = FE_M.inv()
    # the relation gives 1/M = M/Q
    q_rf = RationalFunction.from_poly(Q_POLY)
    assert minv == FieldElem(RationalFunction.const(0), q_rf.inv())
    assert FE_M * minv == FE_ONE


def test_conjugate_pair_inverse():
    # derived by expanding with the quadratic relation:
    # (P0 + M)(P0 - M) = P0^2 - Q = P1^2 + P2^2 + P3^2
    p0_plus_m = FieldElem.momentum(0) + FE_M
    s = P1 * P1 + P2 * P2 + P3 * P3
    target = (FieldElem.momentum(0) - FE_M) * FieldElem(
        RationalFunction.from_poly(s)
    ).inv()
    assert p0_plus_m * target == FE_ONE
    assert p0_plus_m.inv() == target


def test_fe_inverse_errors():
    with pytest.raises(DivisionByZero):
        FE_ZERO.inv()


def test_extension_is_a_field():
    # the conjugate norm a^2 - b^2 Q vanishes only at a = b = 0 (Q is not a
    # square of a rational function), so every nonzero element must invert;
    # NotInvertible stays as an internal guard with no reachable trigger
    for x in (
        FE_M,
        FE_Q + FE_M,
        FieldElem.momentum(0) * FE_M + FE_Q,
        FieldElem.momentum(3) - FE_M,
    ):
        assert x.inv() * x == FE_ONE


_DEN_ATOMS = (
    P0,
    P1,
    P2,
    P3,
    P0 + P1,
    P0 - P3,
    P1 + P2,
    P0 + P1 + P2,
)


def _rand_den(rng):
    # denominators shaped like the ones normalization actually produces: an
    # integer times a product of momentum components and short linear
    # factors; a dense random denominator turns every cancellation into a
    # worst-case multivariate gcd and says nothing more about the axioms
    d = ONE * Fraction(rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        d = d * _DEN_ATOMS[rng.randrange(len(_DEN_ATOMS))]
    return d


def _rand_rf(rng):
    return RationalFunction(_rand_poly(rng), _rand_den(rng))


def _rand_fe(rng):
    return FieldElem(_rand_rf(rng), _rand_rf(rng))


def test_field_axiom_associativity():
    rng = random.Random(20260822)
    for _ in range(1000):
        x, y, z = _rand_fe(rng), _rand_fe(rng), _rand_fe(rng)
        assert (x * y) * z == x * (y * z)


def test_field_axiom_distributivity():
    rng = random.Random(20260823)
    for _ in range(1000):
        x, y, z = _rand_fe(rng), _rand_fe(rng), _rand_fe(rng)
        assert x * (y + z) == x * y + x * z


def test_field_axiom_commutativity_and_negation():
    rng = random.Random(20260824)
    for _ in range(1000):
        x, y = _rand_fe(rng), _rand_fe(rng)
        assert x * y == y * x
        assert x + y == y + x
        assert (x - y) + y == x


def test_subtraction_is_addition_of_the_negation():
    # RationalFunction.__sub__ folds the sign into the integer scale of the
    # subtrahend instead of negating it first; FieldElem subtracts its parts
    rng = random.Random(20261021)
    unit = [RationalFunction.from_poly(P0 * 3 - P1), RationalFunction.from_poly(ONE)]
    for _ in range(300):
        x, y = _rand_rf(rng), _rand_rf(rng)
        for a, b in ((x, y), (y, x), (x, x), (x, RF_ZERO), (RF_ZERO, x),
                     (x, unit[0]), (unit[0], unit[1]), (unit[1], unit[1])):
            assert a - b == a + (-b)
            assert (a - b)._fac == (a + (-b))._fac
        u, v = _rand_fe(rng), _rand_fe(rng)
        for a, b in ((u, v), (v, u), (u, u), (u, FE_ZERO), (FE_ZERO, u), (u, FE_M)):
            assert a - b == a + (-b)
    assert (x - x).is_zero() and (x - x) == RF_ZERO


def test_field_axiom_inverse_round_trip():
    rng = random.Random(20260825)
    done = 0
    while done < 1000:
        x = _rand_fe(rng)
        if x.is_zero():
            continue
        assert x * x.inv() == FE_ONE
        done += 1


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

def test_partial_agrees_with_polynomial_derivative():
    rng = random.Random(20261019)
    for _ in range(200):
        p = _rand_poly(rng)
        for v in range(4):
            want = FieldElem.from_poly(p.derivative(v))
            assert partial(FieldElem.from_poly(p), v) == want, (p, v)
    assert FieldElem.monomial((1, 0, 2, 0), True) == FieldElem.from_poly(
        P0 * P2 * P2
    ) * FE_M


def test_partial_product_and_quotient_rules():
    # the pool's denominators already take the reference's quotient rule;
    # an inverse's denominator is the conjugate norm, seldom certified, so
    # each of its derivatives runs gcds against a large numerator (up to
    # 2.5 s), and only the first 20 draws take it
    rng = random.Random(20261020)
    for k in range(300):
        x, y = _rand_fe(rng), _rand_fe(rng)
        v = rng.randrange(4)
        dx, dy = partial(x, v), partial(y, v)
        assert partial(x * y, v) == dx * y + x * dy
        if k < 20 and not y.is_zero():
            yinv = y.inv()
            assert partial(yinv, v) == -(dy * yinv * yinv)


def test_partial_of_mass_follows_from_mass_squared():
    for v in range(4):
        assert FE_M * partial(FE_M, v) * 2 == partial(FE_Q, v)
        # d/dP[v] M = eta[v,v] * P[v] * M / Q
        sign = 1 if v == 0 else -1
        assert partial(FE_M, v) == FieldElem.momentum(v) * FE_M * FE_Q.inv() * sign


def test_partial_of_a_rational_element_is_zero():
    for c in (0, 1, -4, Fraction(-3, 5)):
        for v in range(4):
            assert partial(FieldElem.const(c), v) == FE_ZERO


def test_monomial_partial_matches_the_quotient_rule():
    # the closed form against the reference, in value and in factor list,
    # on every monomial of degree up to 3 in each momentum, with and
    # without M; the lists must agree too, as the closed form builds its
    # quotient on Q's list as it stands
    for exps in itertools.product(range(4), repeat=4):
        for with_m in (False, True):
            m = FieldElem.monomial(exps, with_m)
            for v in range(4):
                got, want = monomial_partial(exps, with_m, v), partial(m, v)
                assert got == want, (exps, with_m, v)
                assert (got.a._fac, got.b._fac) == (want.a._fac, want.b._fac)


# confalg's modules, imported in a fresh interpreter without the package's
# __init__ (which imports them all), so that only what a test names runs
_BARE_PACKAGE = (
    "import importlib.util, sys, types\n"
    "pkg = types.ModuleType('confalg')\n"
    "pkg.__path__ = importlib.util.find_spec('confalg')"
    ".submodule_search_locations\n"
    "sys.modules['confalg'] = pkg\n"
)


def test_field_certifies_q_at_import(run_cli):
    # before any arithmetic but field's own, Q is the one certified prime
    r = run_cli(launcher=("-c", _BARE_PACKAGE + (
        "from confalg import field\n"
        "print(list(field._PRIMES) == [field.Q_POLY])\n"
    )))
    assert (r.returncode, r.stdout, r.stderr) == (0, "True\n", "")


def test_field_import_fails_unless_q_is_certified(run_cli):
    # monomial_partial's quotients are in lowest terms only over a
    # certified Q, so an uncertified one stops the import
    r = run_cli(launcher=("-c", _BARE_PACKAGE + (
        "from confalg import errors, poly\n"
        "poly.certify_or_split = lambda d: [(d, False)]\n"
        "try:\n"
        "    from confalg import field\n"
        "except errors.ConsistencyFailure as exc:\n"
        "    print(exc)\n"
    )))
    assert r.returncode == 0, r.stderr
    assert "the mass square Q is not certified prime" in r.stdout


def _tiny_fe(rng):
    # double inversion squares every degree in sight, so this generator stays
    # near the bottom of the size range; x * x.inv() == 1 above already pins
    # down which element the inverse is, this checks the normal form walks
    # all the way back
    def tiny_poly():
        p = ZERO
        for _ in range(rng.randint(0, 2)):
            exps = [0, 0, 0, 0]
            if rng.random() < 0.8:
                exps[rng.randrange(4)] += 1
            p = p + Polynomial({tuple(exps): Fraction(rng.randint(-3, 3))})
        return p

    den = ONE * Fraction(rng.randint(1, 2))
    if rng.random() < 0.5:
        den = den * _DEN_ATOMS[rng.randrange(len(_DEN_ATOMS))]
    dinv = RationalFunction.from_poly(den).inv()
    return FieldElem(
        RationalFunction.from_poly(tiny_poly()) * dinv,
        RationalFunction.from_poly(tiny_poly()) * dinv,
    )


def test_inverse_involution():
    rng = random.Random(20260827)
    done = 0
    while done < 150:
        x = _tiny_fe(rng)
        if x.is_zero():
            continue
        assert x.inv().inv() == x
        done += 1


def test_canonical_zero_many_paths():
    rng = random.Random(20260826)
    for _ in range(200):
        x = _rand_fe(rng)
        d = x - x
        assert d.is_zero()
        assert d == FE_ZERO
        assert hash(d) == hash(FE_ZERO)


# ---------------------------------------------------------------------------
# exactness of stored coefficients
# ---------------------------------------------------------------------------

def _assert_exact_poly(p):
    # a nonzero int when integral, a Fraction only when not: never a zero, a
    # float, a bool or an integral Fraction, whichever operation (or trusted
    # constructor) produced the polynomial
    for c in p.terms.values():
        assert c and (
            type(c) is int or (type(c) is Fraction and c.denominator != 1)
        ), p.terms


def _assert_exact_fe(x):
    for part in (x.a.num, x.a.den, x.b.num, x.b.den):
        _assert_exact_poly(part)


def test_stored_coefficients_are_int_or_nonintegral_fraction():
    rng = random.Random(20260828)
    for _ in range(150):
        p, q = _rand_poly(rng), _rand_poly(rng)
        for r in (p, q, p + q, p - q, p * q, -p, p * 2, p * frac(2, 3), p * frac(3)):
            _assert_exact_poly(r)
        if not q.is_zero():
            r = exact_div(p * q, q)
            _assert_exact_poly(r)
            _assert_exact_poly(poly_gcd(p, q))
        x, y = _rand_fe(rng), _rand_fe(rng)
        for z in (x + y, x - y, x * y, -x, x * 3, x * frac(1, 2), x * FE_M):
            _assert_exact_fe(z)
        if not x.is_zero():
            _assert_exact_fe(x.inv())
        N, d, dinv = x.as_quotient()
        assert N.is_integral() and d.is_integral()
        for part in (N, d, dinv):
            _assert_exact_fe(part)
        rf = _rand_rf(rng)
        for r in (rf, rf * rf, rf + rf, rf * 4):
            _assert_exact_poly(r.num)
            _assert_exact_poly(r.den)
        if not rf.is_zero():
            _assert_exact_poly(rf.inv().num)
            _assert_exact_poly(rf.inv().den)


def test_constructor_normalizes_and_rejects_inexact_coefficients():
    e = (1, 0, 0, 0)
    p = Polynomial({e: Fraction(6, 2), (0, 1, 0, 0): Fraction(1, 2), (0, 0, 0, 0): True})
    assert type(p.terms[e]) is int and p.terms[e] == 3
    assert type(p.terms[(0, 0, 0, 0)]) is int
    assert p.terms[(0, 1, 0, 0)] == Fraction(1, 2)
    with pytest.raises(TypeError):
        Polynomial({e: 0.5})
    with pytest.raises(TypeError):
        Polynomial({e: 0.0})
    assert Polynomial({e: 0, (0, 0, 0, 0): Fraction(0)}) == ZERO


def test_constants_reject_floats():
    # const goes through the constructor's check instead of storing the
    # binary fraction of the float
    for make in (Polynomial.const, RationalFunction.const, FieldElem.const):
        with pytest.raises(TypeError):
            make(0.1)
    assert Polynomial.const(0) is ZERO
    assert Polynomial.const(Fraction(0)) is ZERO
    assert FieldElem.const(Fraction(6, 2)) == FieldElem.const(3)


def test_constant_quotients_reduce():
    assert RationalFunction(ONE * 3, ONE * 6) == RationalFunction.const(Fraction(1, 2))


# ---------------------------------------------------------------------------
# factored denominators against the gcd-based arithmetic they replace
# ---------------------------------------------------------------------------

def _ref_canon(num, den):
    """Integer parts with coprime contents, positive-leading denominator."""
    if num.is_zero():
        return ZERO, ONE
    cn, cd = integer_content(num), integer_content(den)
    g = Fraction(
        math.gcd(Fraction(cn).numerator, Fraction(cd).numerator),
        math.lcm(Fraction(cn).denominator, Fraction(cd).denominator),
    )
    if den.leading()[1] < 0:
        g = -g
    return num * (1 / g), den * (1 / g)


def _ref_new(num, den):
    """RationalFunction(num, den) as the gcd-based field reduced it (test-only)."""
    if num.is_zero():
        return ZERO, ONE
    if not den.is_const():
        q = exact_div(num, den)
        if q is not None:
            num, den = q, ONE
        else:
            g = poly_gcd(num, den)
            if not g.is_const():
                num, den = exact_div(num, g), exact_div(den, g)
    return _ref_canon(num, den)


def _ref_add(x, y):
    (a, b), (c, d) = x, y
    if a.is_zero():
        return y
    if c.is_zero():
        return x
    if b == d:
        return _ref_new(a + c, b)
    g = poly_gcd(b, d)
    d1, d2 = exact_div(b, g), exact_div(d, g)
    return _ref_new(a * d2 + c * d1, b * d2)


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    if a.is_zero() or c.is_zero():
        return ZERO, ONE
    g1, g2 = poly_gcd(a, d), poly_gcd(c, b)
    a, d = exact_div(a, g1), exact_div(d, g1)
    c, b = exact_div(c, g2), exact_div(b, g2)
    return _ref_canon(a * c, b * d)


def _ref_inv(x):
    return _ref_canon(x[1], x[0])


def _ref_as_quotient(x, y):
    """The common-denominator form (N, d) of x + y*M, N = A + B*M, as
    field elements."""
    (a, ad), (b, bd) = x, y
    if ad != bd:
        g = poly_gcd(ad, bd) * math.gcd(integer_content(ad), integer_content(bd))
        bd_r, ad_r = exact_div(bd, g), exact_div(ad, g)
        a, b, ad = a * bd_r, b * ad_r, ad * bd_r
    N = FieldElem(RationalFunction.from_poly(a), RationalFunction.from_poly(b))
    return N, FieldElem.from_poly(ad)


def _parts(r):
    return r.num, r.den


def _total_degree(p):
    return max((sum(e) for e in p.terms), default=-1)


def _lin(*coeffs):
    """c0*P0 + c1*P1 + c2*P2 + c3*P3 + c4."""
    return Polynomial(
        {e: c for e, c in zip(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                               (0, 0, 0, 1), (0, 0, 0, 0)), coeffs) if c}
    )


S_POLY = P1 * P1 + P2 * P2 + P3 * P3

# forms no other test uses, so that the first thing that meets them below is
# a product: each pair is admitted as one composite denominator
_FRESH_SPLIT = (_lin(3, 0, 5, 0, -7), _lin(0, 7, 0, -2, 11))
# two forms in the same two symbols: no content split separates them, and
# their product has a square discriminant, so it stays uncertified
_FRESH_SHARED = (_lin(1, 2, 0, 0, 13), _lin(3, -1, 0, 0, 17))
# cubic in both symbols they contain: no certificate covers them
_FRESH_CUBIC = (
    P0 ** 3 + P1 ** 3 + ONE * 2,
    P0 ** 3 - P1 ** 3 + P1 * 5 + ONE * 3,
)


def test_factored_arithmetic_matches_gcd_reference():
    from confalg import field

    for f in (*_FRESH_SPLIT, *_FRESH_SHARED, *_FRESH_CUBIC):
        assert f not in field._PRIMES
    split = RationalFunction(P2, _FRESH_SPLIT[0] * _FRESH_SPLIT[1] * 6)
    assert split.den == _FRESH_SPLIT[0] * _FRESH_SPLIT[1] * 6
    assert all(f in field._PRIMES for f in _FRESH_SPLIT)
    shared = _FRESH_SHARED[0] * _FRESH_SHARED[1]
    cubic = _FRESH_CUBIC[0] * _FRESH_CUBIC[1]
    held = []
    for composite in (shared, cubic):
        x = RationalFunction(P3, composite)
        assert composite in x._fac[1]
        assert composite not in field._PRIMES
        held.append(x)

    # a numerator that holds one form of an uncertified product splits it:
    # in a product, into two certified primes here
    x = RationalFunction(P3, shared) * RationalFunction.from_poly(_FRESH_SHARED[0])
    assert _parts(x) == (P3, _FRESH_SHARED[1])
    assert all(f in field._PRIMES for f in _FRESH_SHARED)
    # and in a sum, where both terms carry the product with one exponent;
    # the cubics stay uncertified
    y = RationalFunction(P3, cubic) + RationalFunction(_FRESH_CUBIC[0] - P3, cubic)
    assert _parts(y) == (ONE, _FRESH_CUBIC[1])
    assert y._fac[1] == {_FRESH_CUBIC[1]: 1}
    y = RationalFunction(ONE, cubic) * RationalFunction.from_poly(_FRESH_CUBIC[1])
    assert _parts(y) == (ONE, _FRESH_CUBIC[0])
    assert not any(f in field._PRIMES for f in _FRESH_CUBIC)
    # one operand has the uncertified product, the other one of its factors:
    # the sum cancels that factor, and the product splits the composite
    # where the numerator meets it
    x, c0 = (P3, cubic), (ONE, _FRESH_CUBIC[0])
    rx, rc0 = RationalFunction(*x), RationalFunction(*c0)
    assert _parts(rx + rc0) == _ref_add(x, c0)
    assert _parts(rx * rc0.inv()) == _ref_mul(x, _ref_inv(c0))
    _assert_quotient(FieldElem(rx, rc0), x, c0)

    # n-ary sums against a fold of the binary reference
    def assert_sum(xs):
        z = product_sum(_alone(xs))
        assert _parts(z) == functools.reduce(_ref_add, map(_parts, xs), (ZERO, ONE))
        assert _scaled_product(*z._fac) == z.den
        return z

    p, r = P0 + P1, P0 - P3
    for f in (p, r):
        RationalFunction(ONE, f)
        assert f in field._PRIMES
    # only one operand carries p^2: p divides every other term, so it is no
    # candidate and stays
    z = assert_sum([
        RationalFunction(ONE, p * p), RationalFunction(P2, p), RationalFunction(P1, r),
    ])
    assert z._fac[1] == {p: 2, r: 1}
    # two operands carry p^2, and their numerators add up to p
    z = assert_sum([
        RationalFunction(ONE, p * p), RationalFunction(p - ONE, p * p),
        RationalFunction(P1, r),
    ])
    assert z._fac[1] == {p: 1, r: 1}
    # the cubic product, uncertified, cancels between two operands; sx still
    # lists the shared product as one uncertified factor, while the fourth
    # operand, admitted after its primes were certified, lists them apart
    sx, cx = held
    assert shared in sx._fac[1] and cubic in cx._fac[1]
    z = assert_sum([
        cx, sx, RationalFunction(_FRESH_CUBIC[0] - P3, cubic),
        RationalFunction(_FRESH_SHARED[0] - P3, shared), RationalFunction(P2, p),
    ])
    assert set(z._fac[1]) == {_FRESH_CUBIC[1], _FRESH_SHARED[1], p}
    # sums that vanish, on factor lists and on unit lists
    assert assert_sum([sx, cx, -(sx + cx)]) is field.RF_ZERO
    polys = [RationalFunction.from_poly(q) for q in (P0, P1 * P2, -(P0 + P1 * P2))]
    assert assert_sum(polys) is field.RF_ZERO
    assert assert_sum(polys[:2])._fac == (1, {})
    # no operand, only zeros, and one operand
    assert product_sum([]) is field.RF_ZERO
    assert product_sum(_alone([field.RF_ZERO, field.RF_ZERO])).is_zero()
    assert product_sum(_alone([sx])) is sx
    assert assert_sum([field.RF_ZERO, sx, field.RF_ZERO]) is sx
    fes = [FieldElem(sx, cx), FieldElem(cx), FieldElem(field.RF_ZERO, sx)]
    assert scaled_sum([(1, c, None) for c in fes]) == fes[0] + fes[1] + fes[2]
    assert scaled_sum([(1, fes[0], None)]) is fes[0]

    atoms = (
        P0, P1, P2, P3, Q_POLY, S_POLY, P0 + P1, P0 - P3, _lin(2, 0, -1, 0, 1),
        *_FRESH_SPLIT, *_FRESH_SHARED, *_FRESH_CUBIC, shared, cubic,
    )
    rng = random.Random(20261019)

    def rand_den():
        d = ONE * rng.randint(1, 3)
        for _ in range(rng.randint(0, 3)):
            atom = atoms[rng.randrange(len(atoms))]
            d = d * atom ** (rng.randint(1, 2) if _total_degree(atom) == 1 else 1)
        return d

    def rand_num():
        # sometimes a multiple of a denominator atom, so that it cancels
        p = _rand_poly(rng, max_terms=2)
        if rng.random() < 0.4:
            p = (p + ONE) * atoms[rng.randrange(len(atoms))]
        return p

    def rand_pair():
        num, den = rand_num(), rand_den()
        return RationalFunction(num, den), _ref_new(num, den)

    pool = [rand_pair() for _ in range(12)]
    # field element products draw from the pool and from these: Q and Q^2 in
    # a denominator, and the uncertified composites held above. They use
    # their own generator, so the pool evolves as without them.
    extra = [
        (RationalFunction(num, den), _ref_new(num, den))
        for num, den in ((P1, Q_POLY), (P0 + P2, Q_POLY * Q_POLY * 2))
    ] + [(h, _parts(h)) for h in held]
    fe_rng = random.Random(20261027)
    for _ in range(300):
        # (x + y*M)(u + v*M), each part against the binary reference with
        # M^2 = Q multiplied into one reference numerator; the degree bound
        # keeps the reference's gcds small
        fe_ops = fe_rng.sample(pool + extra, 4)
        if sum(_total_degree(t.den) for t, _ in fe_ops) <= 10:
            (x, rx), (y, ry), (u, ru), (v, rv) = fe_ops
            fz = FieldElem(x, y) * FieldElem(u, v)
            ryq = _ref_new(ry[0] * Q_POLY, ry[1])
            for part, ref in (
                (fz.a, _ref_add(_ref_mul(rx, ru), _ref_mul(ryq, rv))),
                (fz.b, _ref_add(_ref_mul(rx, rv), _ref_mul(ry, ru))),
            ):
                assert _parts(part) == ref, (x, y, u, v)
                assert _scaled_product(*part._fac) == part.den
                assert integer_content(part.den) == part._fac[0]
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        op = rng.randrange(6)
        if op == 0:
            z, rz = x + y, _ref_add(rx, ry)
        elif op == 1:
            z, rz = x - y, _ref_add(rx, _ref_canon(-ry[0], ry[1]))
        elif op == 2:
            z, rz = x * y, _ref_mul(rx, ry)
        elif op == 3 and not x.is_zero():
            z, rz = x.inv(), _ref_inv(rx)
        elif op == 5:
            terms = [rng.choice(pool) for _ in range(rng.randint(3, 5))]
            z = product_sum(_alone([t for t, _ in terms]))
            rz = functools.reduce(_ref_add, [rt for _, rt in terms])
        else:
            _assert_quotient(FieldElem(x, y), rx, ry)
            continue
        assert _parts(z) == rz, (x, y, op)
        m, F = z._fac
        assert _scaled_product(m, F) == z.den
        if _total_degree(z.den) < 7:
            pool[rng.randrange(len(pool))] = (z, rz)
        if rng.random() < 0.1:
            pool[rng.randrange(len(pool))] = rand_pair()


def _alone(xs):
    """product_sum terms for the plain sum of the RationalFunctions xs."""
    return [(1, x, None, 0) for x in xs]


def _assert_quotient(z, rx, ry):
    """as_quotient of z = x + y*M gives a common denominator of x and y, the
    gcd reference's one when every factor of their lists is certified, and
    1/d, whose factor list expands to d. The list itself may differ from a
    fresh admission of d, which can split an uncertified product."""
    from confalg import field

    N, d, dinv = z.as_quotient()
    assert N.is_integral() and d.is_integral() and d.b.is_zero()
    A, B, dp = N.a.num, N.b.num, d.a.num
    assert FieldElem(RationalFunction(A, dp), RationalFunction(B, dp)) == z
    assert dinv == FieldElem(RationalFunction(ONE, dp))
    assert dinv.b.is_zero() and _scaled_product(*dinv.a._fac) == dp
    if all(f in field._PRIMES for r in (z.a, z.b) for f in r._fac[1]):
        assert (N, d) == _ref_as_quotient(rx, ry)


def test_as_quotient_takes_the_least_integer_denominator():
    # the two parts' denominators 2 and 4 share the factor 2, so d is 4
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    z = FieldElem.momentum(0) * half + FieldElem.momentum(1) * FE_M * quarter
    N, d, dinv = z.as_quotient()
    assert (N, d) == (FieldElem.from_poly(P0 * 2) + FieldElem.from_poly(P1) * FE_M,
                      FieldElem.const(4))
    assert dinv == FieldElem.const(Fraction(1, 4))


def test_prime_certified_after_a_product_that_holds_it():
    from confalg import field

    # fresh forms in the same two symbols: no certificate splits the product
    f1, f2 = _lin(0, 2, 3, 0, 19), _lin(0, 5, -1, 0, 23)
    x = RationalFunction(P3, f1 * f2)
    assert x._fac[1] == {f1 * f2: 1}
    assert not any(f in field._PRIMES for f in (f1, f2, f1 * f2))
    y = RationalFunction(P0, f1)
    assert f1 in field._PRIMES
    # x's list still holds f1 inside the uncertified product, which the sum
    # must split where the numerator meets it
    rx, ry = _parts(x), _parts(y)
    assert _parts(x + y) == _ref_add(rx, ry)
    assert _parts(y + x) == _ref_add(ry, rx)
    assert _parts(x * y.inv()) == _ref_mul(rx, _ref_inv(ry))
    assert _parts(x * RationalFunction.from_poly(f2)) == _ref_mul(rx, (f2, ONE))
    _assert_quotient(FieldElem(x, y), rx, ry)


def test_prime_hidden_in_a_square_cancels_after_the_square():
    from confalg import field

    # a fresh form's square is admitted before the form is certified, so it
    # stays one uncertified factor beside the certified form itself
    f = _lin(0, 0, 7, 4, 29)
    x = RationalFunction(ONE, f * f)
    assert x._fac[1] == {f * f: 1}
    RationalFunction(ONE, f)
    assert f in field._PRIMES
    y = RationalFunction(f - ONE, f * f)
    assert y._fac[1] == {f: 2}
    # the sum's numerator is f^3 over f^2 * f^2: trial division by the
    # square takes f^2, and the f left over cancels only because the gcd
    # after it reaches f, which is no candidate on its own
    rx, ry = _parts(x), _parts(y)
    assert _parts(x + y) == _ref_add(rx, ry) == (ONE, f)
    assert _parts(y + x) == (ONE, f)


def _assert_unit(z):
    """z has the unit list: den 1 and an integer numerator."""
    assert z._fac == (1, {}) and z.den == ONE
    assert all(type(c) is int for c in z.num.terms.values())


def test_unit_lists_and_unit_scalars_match_gcd_reference():
    from confalg import field

    cubic = _FRESH_CUBIC[0] * _FRESH_CUBIC[1]
    rng = random.Random(20261022)
    # integer polynomials and integer constants have the unit list (1, {})
    pool = [(p, ONE) for p in (P0, P1 * P2 - ONE * 3, Q_POLY, ONE, ONE * -4)]
    pool += [(_rand_poly(rng) * 6, ONE) for _ in range(6)]
    pool += [(ONE * 5, ONE * 3), (ONE * -7, ONE * 2)]
    pool += [(P3, cubic), (P0 + ONE, P1 * S_POLY * 2), (P1 * P2, Q_POLY)]
    rfs = [RationalFunction(*x) for x in pool] + [field.RF_ZERO]
    refs = [_ref_new(*x) for x in pool] + [(ZERO, ONE)]
    units = [r._fac == (1, {}) for r in rfs]
    assert sum(units) == 12

    for i, j in itertools.product(range(len(rfs)), repeat=2):
        (x, rx), (y, ry) = (rfs[i], refs[i]), (rfs[j], refs[j])
        for z, rz in (
            (x + y, _ref_add(rx, ry)),
            (x - y, _ref_add(rx, _ref_canon(-ry[0], ry[1]))),
            (x * y, _ref_mul(rx, ry)),
        ):
            assert _parts(z) == rz, (x, y)
            if units[i] and units[j]:
                _assert_unit(z)
    for (x, rx), unit in zip(zip(rfs, refs), units):
        for c in (0, 1, -1, Fraction(3, 2)):
            z = x * c
            assert _parts(z) == _ref_mul(rx, _ref_canon(ONE * c, ONE)), (x, c)
            if unit and c != Fraction(3, 2):
                _assert_unit(z)
            fz = FieldElem(x, x) * c
            assert (_parts(fz.a), _parts(fz.b)) == (_parts(z), _parts(z))


def test_unit_operands_skip_the_factor_list_machinery(monkeypatch):
    from confalg import field

    a, b = P0 * P1 - ONE * 2, Q_POLY + P3 * 3
    x, y = RationalFunction.from_poly(a), RationalFunction.from_poly(b)
    fe = FieldElem(RationalFunction(P0, P1), x)

    def general_path(*args):
        raise AssertionError("unit operands took the factor-list path")

    for name in ("_lcm", "_lowest_terms", "_cancel", "product_sum"):
        monkeypatch.setattr(field, name, general_path)
    assert _parts(x * y) == (a * b, ONE)
    assert _parts(x + y) == (a + b, ONE)
    assert _parts(product_sum(_alone([x, y, x]))) == (a + b + a, ONE)
    assert (x - x).is_zero()
    assert fe * 1 is fe
    assert fe * Fraction(1) is fe
    # integral field elements with M parts: one term map per part, with
    # M^2 = Q, and no product_sum; 2*u*v - 3*v + u*u for u = a + b*M and
    # v = b + a*M
    u, v = FieldElem(x, y), FieldElem(y, x)
    z = scaled_sum([(2, u, v), (-3, v, None), (1, u, u)])
    want_a = (a * b + a * b * Q_POLY) * 2 - b * 3 + a * a + b * b * Q_POLY
    want_b = (a * a + b * b) * 2 - a * 3 + a * b * 2
    assert (_parts(z.a), _parts(z.b)) == ((want_a, ONE), (want_b, ONE))
    for part in (z.a, z.b):
        _assert_unit(part)
        _assert_exact_poly(part.num)


def test_field_product_reduces_each_part_once(monkeypatch):
    from confalg import field

    RationalFunction(ONE, Q_POLY)
    assert Q_POLY in field._PRIMES
    a1, b1 = RationalFunction(P0, P1), RationalFunction(P2, Q_POLY)
    a2, b2 = RationalFunction(P3, P0 + P1), RationalFunction(ONE, P1 * Q_POLY)
    x, y = FieldElem(a1, b1), FieldElem(a2, b2)
    want = (a1 * a2 + b1 * b2 * FE_Q.a, a1 * b2 + b1 * a2)
    plain = FieldElem(a1 * a2)
    calls = {"_lowest_terms": 0, "__mul__": 0}

    def counted(fn, name):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        field, "_lowest_terms", counted(field._lowest_terms, "_lowest_terms")
    )
    monkeypatch.setattr(
        RationalFunction, "__mul__", counted(RationalFunction.__mul__, "__mul__")
    )
    # M on both sides: one reduction per part, and no binary product
    z = x * y
    assert calls == {"_lowest_terms": 2, "__mul__": 0}
    assert (z.a, z.b) == want
    # no M on either side: the binary product and its cross-cancellation
    calls.update(dict.fromkeys(calls, 0))
    assert FieldElem(a1) * FieldElem(a2) == plain
    assert calls["__mul__"] == 1
    # a subtracted operand alone is negated as it stands, with no reduction
    calls.update(dict.fromkeys(calls, 0))
    for r in (a2, RationalFunction.from_poly(P0 * 2 - P3)):
        assert product_sum([(-1, r, None, 0)]) == -r
    assert scaled_sum([(-1, x, None)]) == -x
    assert calls == {"_lowest_terms": 0, "__mul__": 0}

    # the Q of M^2 = Q lowers Q's exponent when the product's list holds
    # it, and multiplies the second factor only when it does not
    def term(x, y, q):
        a, b, m, F = field._product_term(x, y, q)
        return Polynomial(a) * Polynomial(b), m, F

    assert term(b1, b2, 1) == (P2, 1, {P1: 1, Q_POLY: 1})
    assert term(b1, a1, 1) == (P0 * P2, 1, {P1: 1})
    assert term(a1, a2, 1) == (P0 * P3 * Q_POLY, 1, {P1: 1, P0 + P1: 1})
    assert field._product_term(a1, a2, 1)[1] == (P3 * Q_POLY).terms
    assert term(a1, a2, 0) == (P0 * P3, 1, {P1: 1, P0 + P1: 1})


# forms no other test uses: two linear forms in P2 and P3 whose product
# stays one uncertified factor, and two cubics no certificate covers
_SUM_SHARED = (_lin(0, 0, 1, 3, 31), _lin(0, 0, 4, -1, 37))
_SUM_CUBIC = (P2 ** 3 + P3 ** 3 + ONE * 5, P2 ** 3 - P3 ** 3 + P3 * 2 + ONE * 7)


def test_scaled_product_sums_match_binary_operators():
    from confalg import field

    shared = _SUM_SHARED[0] * _SUM_SHARED[1]
    cubic = _SUM_CUBIC[0] * _SUM_CUBIC[1]
    held = [RationalFunction(P3, shared), RationalFunction(P0 + ONE, cubic)]
    for x, composite in zip(held, (shared, cubic)):
        assert x._fac[1] == {composite: 1}
        assert composite not in field._PRIMES
    rng = random.Random(20261028)
    units = [
        RationalFunction.from_poly(p)
        for p in (P0, P1 * P2 - ONE * 3, Q_POLY, ONE * -4, P3 * P3 + P0 * 2)
    ] + [field.RF_ONE]
    # a numerator that meets one factor of a composite splits it
    meet = [RationalFunction.from_poly(f) for f in (_SUM_SHARED[0], _SUM_CUBIC[1])]
    pool = units + meet + held + [
        RationalFunction(P1, Q_POLY),
        RationalFunction(P0 + P2, Q_POLY * Q_POLY * 2),
        RationalFunction(Q_POLY * P2, P0 + P1),
        RationalFunction(P2 * 3, P1 * P3 * 4),
        RationalFunction(_SUM_SHARED[0] * 2 - P0, shared * P1),
        field.RF_ZERO,
    ]
    rq = RationalFunction.from_poly(Q_POLY)
    ks = (1, -1, 1, -1, 2, -3, 12, -35)

    def binary(terms):
        """sum(k * (x * y) * Q^q) folded with the binary operators."""
        z = field.RF_ZERO
        for k, x, y, q in terms:
            t = x if y is None else x * y
            z = z + (t * rq if q else t) * k
        return z

    def check(z, want):
        assert z == want
        assert _scaled_product(*z._fac) == z.den
        assert integer_content(z.den) == z._fac[0]

    seen = set()
    for _ in range(160):
        terms = []
        for _ in range(rng.choice((1, 1, 2, 3, 4))):
            k, x = rng.choice(ks), rng.choice(pool)
            if rng.random() < 0.3:
                terms.append((k, x, None, 0))
            else:
                terms.append((k, x, rng.choice(pool), rng.randrange(2)))
        z = product_sum(terms)
        check(z, binary(terms))
        operands = [t for k, x, y, q in terms for t in (x, y) if t is not None]
        if all(t._fac == (1, {}) for t in operands):
            _assert_unit(z)
            seen.add("unit")
        if len(terms) == 1:
            seen.add(("one term", terms[0][2] is not None, terms[0][3]))
        if any(t in held for t in operands):
            seen.add("composite")
    assert seen >= {
        "unit", "composite",
        ("one term", False, 0), ("one term", True, 0), ("one term", True, 1),
    }

    # field elements: each part of sum(k * x * y) against the binary
    # operators on the parts, with M^2 = Q
    def check_fe(terms):
        a, b = [], []
        for k, x, y in terms:
            if y is None:
                a.append((k, x.a, None, 0))
                b.append((k, x.b, None, 0))
            else:
                a += (k, x.a, y.a, 0), (k, x.b, y.b, 1)
                b += (k, x.a, y.b, 0), (k, x.b, y.a, 0)
        z = scaled_sum(terms)
        check(z.a, binary(a))
        check(z.b, binary(b))
        return z

    fes = [FE_ONE, FE_M, FieldElem(units[1], units[0]), FieldElem(held[0])]
    fes += [FieldElem(rng.choice(pool), rng.choice(pool)) for _ in range(8)]
    for _ in range(60):
        check_fe([
            (rng.choice(ks), rng.choice(fes), rng.choice((None, *fes)))
            for _ in range(rng.choice((1, 2, 3)))
        ])

    # integral field elements take scaled_sum's one-pass path, which a
    # non-integral operand leaves for the general route wherever it stands
    integral = [
        FE_ONE, FE_M, FieldElem(units[1], units[0]),
        FieldElem(units[2], units[4]), FieldElem(units[3]),
        FieldElem(field.RF_ZERO, units[1]),
    ]
    other = [fe for fe in fes if not fe.is_integral()]
    for n in range(120):
        terms = [
            (rng.choice(ks), rng.choice(integral), rng.choice((None, *integral)))
            for _ in range(rng.choice((1, 1, 2, 3)))
        ]
        if n % 4 == 1:
            # the same products with opposite signs: the sum is zero
            terms += [(-k, x, y) for k, x, y in reversed(terms)]
        elif n % 4 == 2:
            terms.append((rng.choice(ks), rng.choice(other), rng.choice((None, *fes))))
        elif n % 4 == 3:
            terms.insert(0, (rng.choice(ks), rng.choice(other), None))
        z = check_fe(terms)
        if not all(x.is_integral() and (y is None or y.is_integral())
                   for _, x, y in terms):
            first = terms[0][1].is_integral()
            seen.add("mixed, unit first" if first else "mixed, unit last")
            continue
        for part in (z.a, z.b):
            _assert_unit(part)
            _assert_exact_poly(part.num)
        if any(y is not None and x.b.num.terms and y.b.num.terms
               for _, x, y in terms):
            seen.add("unit, M*M")
        if z.is_zero():
            seen.add("unit, zero")
        if len(terms) == 1 and terms[0][0] != 1:
            seen.add("unit, one term, k != 1")
    assert seen >= {
        "unit, M*M", "unit, zero", "unit, one term, k != 1",
        "mixed, unit first", "mixed, unit last",
    }
    assert scaled_sum([(1, fes[3], None)]) is fes[3]


def test_cofactor_sums_match_binary_operators():
    """The grouped product_sum against the fold of the binary operators:
    terms that share a list, terms with distinct lists, Q terms with and
    without Q in the list, unit and non-unit terms together, uncertified
    composites, and sums that cancel to zero."""
    from confalg import field

    RationalFunction(ONE, P1 * (P0 + P1) * Q_POLY)
    shared = _SUM_SHARED[0] * _SUM_SHARED[1]
    rng = random.Random(20261103)
    units = [RationalFunction.from_poly(p) for p in (P0, P1 * P2 - ONE * 3, Q_POLY)]
    units.append(RationalFunction.const(-4))
    over_q = [
        RationalFunction(P1, Q_POLY),
        RationalFunction(P0 + P2, Q_POLY),
        RationalFunction(P2 * 3, Q_POLY * 2),
        RationalFunction(P3, Q_POLY * Q_POLY),
    ]
    over_lin = [
        RationalFunction(P3, P0 + P1),
        RationalFunction(Q_POLY * P2, P0 + P1),
        RationalFunction(ONE * 5, P1 * (P0 + P1)),
        RationalFunction(P2, P1),
        RationalFunction(P0, P0 + P1),
    ]
    # the composite is built on its list, so it stays uncertified whatever
    # an earlier test certified
    composite = [
        RationalFunction(P3, shared, _fac=(1, {shared: 1})),
        RationalFunction(P0 + P2, shared * 3, _fac=(3, {shared: 1})),
        RationalFunction.from_poly(_SUM_SHARED[0]),
    ]
    pool = units + over_q + over_lin + composite
    rq = RationalFunction.from_poly(Q_POLY)

    def binary(terms):
        z = field.RF_ZERO
        for k, x, y, q in terms:
            t = x if y is None else x * y
            z = z + (t * rq if q else t) * k
        return z

    def lists(terms):
        return [
            (x._fac, None if y is None else y._fac, q) for _, x, y, q in terms
        ]

    seen = set()
    for _ in range(150):
        terms = []
        for _ in range(rng.randint(2, 5)):
            k, x = rng.choice((1, -1, 2, -3, 6)), rng.choice(pool)
            if rng.random() < 0.3:
                terms.append((k, x, None, 0))
            else:
                terms.append((k, x, rng.choice(pool), rng.randrange(2)))
        if rng.random() < 0.25:
            terms += [(-k, x, y, q) for k, x, y, q in terms]
            rng.shuffle(terms)
        z = product_sum(terms)
        assert z == binary(terms)
        assert _scaled_product(*z._fac) == z.den
        assert integer_content(z.den) == z._fac[0]
        facs = lists(terms)
        if z.is_zero():
            seen.add("zero")
        if len(set(map(repr, facs))) < len(facs):
            seen.add("shared list")
        for (fx, fy, q) in facs:
            if q:
                held = Q_POLY in fx[1] or Q_POLY in fy[1]
                seen.add(("Q", held))
        units_here = [f == (1, {}) for fx, fy, _ in facs for f in (fx, fy) if f]
        if any(units_here) and not all(units_here):
            seen.add("mixed")
        if any(x in composite[:2] or y in composite[:2] for _, x, y, _ in terms):
            seen.add("composite")
    assert seen >= {
        "zero", "shared list", ("Q", True), ("Q", False), "mixed", "composite",
    }
    # P0 + P1 is certified and divides the sum of the two operands that
    # carry it, one group of terms, so it is a candidate and cancels
    z = product_sum([
        (1, over_lin[4], None, 0), (1, RationalFunction(P1, P0 + P1), None, 0),
        (1, over_q[0], None, 0),
    ])
    assert z == field.RF_ONE + over_q[0] and z._fac == (1, {Q_POLY: 1})

    # field elements over the same pool
    fes = [FE_M] + [FieldElem(rng.choice(pool), rng.choice(pool)) for _ in range(8)]
    for _ in range(40):
        terms = [
            (rng.choice((1, -2, 3)), rng.choice(fes), rng.choice((None, *fes)))
            for _ in range(rng.randint(2, 4))
        ]
        z = scaled_sum(terms)
        want = FE_ZERO
        for k, x, y in terms:
            want = want + (x if y is None else x * y) * k
        assert z == want
        zero = scaled_sum(terms + [(-k, x, y) for k, x, y in terms])
        assert zero.is_zero()


def test_sum_memo_is_transparent(monkeypatch):
    # scaled_sum through a memo equals scaled_sum without one on random
    # lists, repeated, reordered, and differing only in k. Only a list with
    # an operand over a polynomial denominator adds an entry, a repeat reads
    # it back, and the memo is emptied when it reaches its cap.
    from confalg import field

    monkeypatch.setattr(field, "SUM_MEMO_CAP", 24)
    rng = random.Random(20261038)
    p0, p1 = FieldElem.momentum(0), FieldElem.momentum(1)
    rational = [
        FieldElem.const(Fraction(1, 2)),
        FieldElem(RationalFunction.const(Fraction(-3, 4)),
                  RationalFunction.const(Fraction(2, 3))),
    ]
    integral = [FE_ONE, FE_M, FE_Q, p0 * p1 - FE_M * 3, p1 + FE_M * p0]
    polynomial = [FE_M.inv(), (p0 + FE_M).inv()]
    while len(polynomial) < 6:
        x = _rand_fe(rng)
        if x.a._fac[1] or x.b._fac[1]:
            polynomial.append(x)
    assert all(x.is_integral() for x in integral)
    assert not any(x.a._fac[1] or x.b._fac[1] for x in rational)

    def draw(pool):
        return [
            (rng.choice((1, -2, 3)), rng.choice(pool), rng.choice((None, *pool)))
            for _ in range(rng.randint(1, 4))
        ]

    def stored(terms):
        k, x, y = terms[0]
        if len(terms) == 1 and k == 1 and y is None:
            return False
        return any(f._fac[1] for _, x, y in terms for e in (x, y) if e
                   for f in (e.a, e.b))

    memo, drawn, seen = {}, [], set()
    for n in range(400):
        roll = rng.random()
        if not drawn or roll < 0.4:
            pool = rng.choice((integral, integral + rational, integral + polynomial,
                               rational + polynomial))
            terms, shape = draw(pool), "fresh"
        elif roll < 0.6:
            terms, shape = rng.choice(drawn), "repeat"
        elif roll < 0.8:
            terms = list(rng.choice(drawn))
            rng.shuffle(terms)
            shape = "reordered"
        else:
            terms = list(rng.choice(drawn))
            i = rng.randrange(len(terms))
            k, x, y = terms[i]
            terms[i] = (rng.choice([c for c in (1, -2, 3, 5) if c != k]), x, y)
            shape = "k"
        drawn.append(terms)
        key, before = tuple(terms), len(memo)
        known = memo.get(key)
        z = scaled_sum(terms, memo)
        assert z == scaled_sum(terms), n
        assert len(memo) <= field.SUM_MEMO_CAP
        if not stored(terms):
            assert len(memo) == before, n
            seen.add(("no entry", shape))
        elif known is not None:
            assert z is known and len(memo) == before, n
            seen.add(("hit", shape))
        else:
            assert memo[key] is z, n
            assert len(memo) == (1 if before == field.SUM_MEMO_CAP else before + 1)
            seen.add("emptied" if before == field.SUM_MEMO_CAP else ("miss", shape))
    assert seen >= {
        "emptied", ("miss", "fresh"), ("miss", "reordered"), ("miss", "k"),
        ("hit", "repeat"), ("no entry", "fresh"), ("no entry", "repeat"),
    }


def test_cofactor_sum_multiplies_each_distinct_cofactor_once(monkeypatch):
    from confalg import field

    f1, f2 = P0 + P1, P0 - P2 * 2
    RationalFunction(ONE, f1 * f2)
    assert f1 in field._PRIMES and f2 in field._PRIMES
    on_f1 = [RationalFunction(P2, f1), RationalFunction(P3 * 2, f1)]
    on_f2 = [RationalFunction(P2, f2), RationalFunction(ONE, f2 * 3)]
    both = RationalFunction(P3, f1 * f2)
    unit = RationalFunction.from_poly(P0)
    # nine terms over L = f1 * f2, with three distinct non-empty cofactors:
    # f2 for the lists {f1}, f1 for {f2}, f1 * f2 for the unit list
    terms = [
        (1, on_f1[0], None, 0), (3, on_f1[1], unit, 0), (-1, on_f1[0], unit, 1),
        (2, on_f2[0], None, 0), (1, on_f2[1], unit, 0),
        (1, on_f1[0], on_f2[1], 0), (5, both, None, 0), (1, both, unit, 1),
        (-7, unit, unit, 1),
    ]
    want = FE_ZERO.a
    for k, x, y, q in terms:
        t = x if y is None else x * y
        want = want + (t * FE_Q.a if q else t) * k
    expanded = []
    expand = field._expand

    def counted(F):
        expanded.append(dict(F))
        return expand(F)

    monkeypatch.setattr(field, "_expand", counted)
    assert product_sum(terms) == want
    # one _expand per cofactor, then one for the denominator in _lowest_terms
    assert len(expanded) == 4
    cofactors = {frozenset(F.items()) for F in expanded[:3]}
    assert cofactors == {
        frozenset({f2: 1}.items()),
        frozenset({f1: 1}.items()),
        frozenset({f1: 1, f2: 1}.items()),
    }


def test_integer_from_poly_matches_admitted_quotient(monkeypatch):
    from confalg import field

    polys = (
        P0 * 3 - P1 * P2 + ONE * 7,
        P0 * Fraction(1, 2) + P3 * Fraction(2, 3),
        Polynomial.zero(),
        ONE * -5,
        ONE * Fraction(3, 4),
    )
    admitted = [RationalFunction(p, ONE) for p in polys]
    calls = [0]
    admit = field._admit

    def counted(num, den):
        calls[0] += 1
        return admit(num, den)

    monkeypatch.setattr(field, "_admit", counted)
    for p, want in zip(polys, admitted):
        z = RationalFunction.from_poly(p)
        assert (z.num, z.den, z._fac) == (want.num, want.den, want._fac)
        assert all(type(c) is int for c in z.num.terms.values())
    # only the two polynomials with Fraction coefficients are admitted
    assert calls[0] == 2


def _scaled_product(m, F):
    p = ONE * m
    for f, e in F.items():
        p = p * f ** e
    return p


def test_factor_lists_are_coprime_and_expand_to_the_denominator():
    # coprime because every factor here is a certified linear form: an
    # uncertified factor may share a factor with another one
    rng = random.Random(20261020)
    for _ in range(200):
        x = _rand_fe(rng) * _rand_fe(rng) + _rand_fe(rng)
        for r in (x.a, x.b):
            m, F = r._fac
            assert _scaled_product(m, F) == r.den
            assert integer_content(r.den) == m
            fs = list(F)
            for i, f in enumerate(fs):
                assert integer_content(f) == 1 and f.leading()[1] > 0
                assert not f.is_const() and F[f] > 0
                for g in fs[i + 1:]:
                    assert poly_gcd(f, g) == ONE


# ---------------------------------------------------------------------------
# the irreducibility certificate
# ---------------------------------------------------------------------------

def _primitive(p):
    p = p * (1 / Fraction(integer_content(p)))
    return -p if p.leading()[1] < 0 else p


def test_certificate_covers_the_mass_shell_factors():
    for p in (P0, P1, P3, Q_POLY, S_POLY, _lin(2, 0, -1, 0, 1), _lin(0, 3, 0, 5, 0),
              P0 * P1 + P2 * P3, P0 * P0 + P1 * P1):
        assert certify_or_split(p) == [(p, True)], p.pretty()
    assert certify_or_split(P0 * P0 - P1 * P1) == [(P0 * P0 - P1 * P1, False)]
    assert certify_or_split(_FRESH_CUBIC[0]) == [(_FRESH_CUBIC[0], False)]


def test_certificate_never_certifies_a_product():
    rng = random.Random(20261021)
    done = 0
    while done < 300:
        f, g = _rand_poly(rng), _rand_poly(rng)
        if f.is_const() or g.is_const():
            continue
        f, g = _primitive(f), _primitive(g)
        p = f * g
        pieces = certify_or_split(p)
        assert (p, True) not in pieces
        prod = ONE
        for i, (piece, prime) in enumerate(pieces):
            assert not piece.is_const()
            assert integer_content(piece) == 1 and piece.leading()[1] > 0
            prod = prod * piece
            for other, _ in pieces[i + 1:]:
                assert poly_gcd(piece, other) == ONE
            if prime:
                # an irreducible factor of f*g divides f or g
                assert (
                    exact_div(f, piece) is not None
                    or exact_div(g, piece) is not None
                )
        assert prod == p
        done += 1
