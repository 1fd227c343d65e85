"""The exact coefficient field of the operator engine.

Three layers sit on top of Fraction:

* Polynomial (see poly.py) in the four momentum components P[0]..P[3];
* RationalFunction, a reduced quotient of two such polynomials;
* FieldElem, the quadratic extension a + b*M where the mass symbol M
  satisfies M^2 = Q with Q = P[0]^2 - P[1]^2 - P[2]^2 - P[3]^2.

The extension relation is applied eagerly, so a FieldElem never carries M to a
power above one. Inversion uses the conjugate: (a + b*M)^-1 =
(a - b*M) / (a^2 - b^2*Q); the norm a^2 - b^2*Q vanishes only for zero because
Q is not a square in the rational-function field, but the degenerate branch is
still reported as NotInvertible rather than silently misbehaving.

Canonical form: RationalFunction stores a reduced numerator/denominator
pair with integer coefficients, coprime contents, and a positive-leading
denominator under graded lex, so equal values compare equal structurally.
All types are immutable and hashable.

Factored denominators: beside den, a RationalFunction keeps its factor list
(m, {f: e}), den = m * prod f^e, over primitive positive-leading non-constant
factors. An operation builds its result's list from its operands' lists: a
product adds exponents, a sum takes the largest ones and multiplies each
numerator by the expanded cofactor. Reducing a numerator against its
denominator is then trial division by the few factors that can divide it.
Sums of products: product_sum adds terms k * x * y * Q^q, k an int, over
one common denominator and reduces the sum once, with one lcm, one _cancel
and one _lowest_terms. k scales a term's numerator. An operand x alone is
reduced; a product x * y is left unreduced: exponents added, and M^2 = Q
applied by dropping Q's exponent in the list when Q is there and by
multiplying y's numerator otherwise. The terms are grouped by cofactor
L / F_i, with m // m_i folded into k: the numerator products of a group
are multiply-accumulated into one term map, which the group's expanded
cofactor then multiplies once, so each distinct cofactor costs one
product however many terms share it. A certified
prime can cancel from a sum only if at least two operands carry its
largest exponent, or if an unreduced product carries it: otherwise it
divides every term but one, whose numerator is coprime to it. One operand
alone is x * k, and one product with no Q is the binary product, whose
numerators can only share the factors that the other operand brings.
scaled_sum adds scaled products k * x * y of field elements, each part
a1*a2 + Q*b1*b2 or a1*b2 + b1*a2: a product of two field elements with M
on either side is one such sum. On integral operands it is one pass (see
Unit lists); a list with any other operand takes one product_sum per
part; there, a caller's sum memo can hold the sums of lists over
polynomial denominators (see scaled_sum). FieldElem.inv forms its norm
a^2 - Q*b^2 as a product_sum. The binary
RationalFunction.__add__ keeps its own path, with the same candidates;
__sub__ shares it, with the sign folded into the subtrahend's integer scale.
A factor is either a certified prime, proved irreducible by
poly.certify_or_split and kept in _PRIMES for the whole process, or
uncertified. Distinct certified primes are coprime without any work. An
uncertified factor may share a factor with another one, or hide a certified
prime; every uncertified factor that could divide a numerator is therefore
a candidate of _cancel, where poly_gcd against the numerator settles it and
splits it. A new denominator, from the constructor or inv, is admitted by
trial division by the certified primes, and its cofactor is certified or
split. The 1/d that FieldElem.as_quotient returns is not admitted: it is
built on the factor list of d that as_quotient forms from the operands'
lists, so d is not factored again.

Derivatives: monomial_partial gives d/dP[v] of a unit monomial P^e or
P^e*M in closed form from its exponents, with d/dP[v] M = eta_vv*P[v]*M/Q
from M^2 = Q. The quotient over Q is built on Q's factor list as it
stands, so field certifies Q prime at import and raises
ConsistencyFailure if it cannot.

Unit lists: a list (1, {}) means den = 1 and a numerator with integer
coefficients (_canon and _lowest_terms see to it). Every constructor of a
factor list returns the one tuple _UNIT for it, so the tests for it compare
by identity. On such operands the lcm,
the cofactors, _cancel and _lowest_terms all reduce to the identity, so a sum
of polynomials, or a product of two, is formed directly; a product_sum on
unit lists goes into one term map, with no grouping. scaled_sum does not
split a list of integral field elements into parts for product_sum: one
loop over its terms adds both parts' products straight into one int term
map each. The first term decides whether a list is tried; a later operand
off the unit list, which is rare, sends it to the general route. Both
unit sums use the same term-map helpers and end in _unit_rf, a trusted
constructor that only drops zeros. An integer polynomial is put on the
unit list without _admit. FieldElem times a scalar 1 returns the operand
itself.
"""

import math
from fractions import Fraction
from operator import ge

from .errors import ConsistencyFailure, DivisionByZero, NotInvertible
from .poly import (
    Polynomial,
    certify_or_split,
    exact_div,
    integer_content,
    poly_gcd,
)

_POLY_ONE = Polynomial.one()
_POLY_ZERO = Polynomial.zero()

#: the square of the mass symbol, P[0]^2 - P[1]^2 - P[2]^2 - P[3]^2
Q_POLY = (
    Polynomial.var(0) * Polynomial.var(0)
    - Polynomial.var(1) * Polynomial.var(1)
    - Polynomial.var(2) * Polynomial.var(2)
    - Polynomial.var(3) * Polynomial.var(3)
)

#: certified prime factor -> its probe (see _probe)
_PRIMES = {}
#: frozenset of (factor, exponent) pairs -> the expanded product
_PRODUCTS = {}
#: _PRODUCTS is emptied when it reaches this many entries
_PRODUCTS_CAP = 4096
#: a sum memo (see scaled_sum) is emptied when it reaches this many entries
SUM_MEMO_CAP = 512
#: the integer point of the probe; far apart values, so that no short linear
#: form with small coefficients vanishes there
_POINT = (113, 1013, 10007, 100003)
_UNIT = (1, {})


def _canon(num, den):
    """Fix only the integer contents and the sign of num/den.

    Scales so both parts have integer coefficients with coprime contents and
    the denominator's leading coefficient is positive. Common polynomial
    factors stay: _admit cancels them afterwards.
    """
    if num.is_zero():
        return num, Polynomial.one()
    cn = integer_content(num)
    cd = integer_content(den)
    if type(cn) is int and type(cd) is int:
        g = math.gcd(cn, cd)
    else:
        g = Fraction(
            math.gcd(cn.numerator, cd.numerator),
            math.lcm(cn.denominator, cd.denominator),
        )
    _, lead = den.leading()
    if lead < 0:
        g = -g
    if g != 1:
        inv = -1 if g == -1 else Fraction(1, g)
        num = num * inv
        den = den * inv
    return num, den


# ---- factor lists ----

def _probe(p):
    """(degree in each symbol, value at _POINT) of a nonzero integer polynomial.

    A factor f can divide p only if no degree of f exceeds that of p and,
    by Gauss's lemma, f(pt) divides p(pt) (the quotient has integer
    coefficients).
    """
    x0, x1, x2, x3 = _POINT
    val = sum(
        c * x0**e0 * x1**e1 * x2**e2 * x3**e3
        for (e0, e1, e2, e3), c in p.terms.items()
    )
    return tuple(map(max, zip(*p.terms))), val


def _trial_divide(p, probe, f, fprobe, limit):
    """(k, p / f^k, its probe) for the largest k <= limit with f^k | p."""
    k = 0
    degs, val = probe
    fdegs, fval = fprobe
    while (
        k < limit
        and (val % fval == 0 if fval else val == 0)
        and all(map(ge, degs, fdegs))
    ):
        q = exact_div(p, f)
        if q is None:
            break
        p, k = q, k + 1
        degs = tuple(a - b for a, b in zip(degs, fdegs))
        val = val // fval if fval else _probe(p)[1]
    return k, p, (degs, val)


def _factor(d):
    """Factor list {f: e} of a non-constant primitive positive-leading d.

    The certified primes are trial-divided out first. The cofactor is
    certified or split by poly.certify_or_split, and the primes it certifies
    join _PRIMES. An uncertified piece is kept as it is, whether or not it
    has a repeated factor or a factor that is certified later.
    """
    out = {}
    probe = _probe(d)
    val = probe[1]
    # the value test alone, in one pass, narrows the many primes a long
    # run can collect to the few worth a trial division
    for f in [f for f, (_, fv) in _PRIMES.items() if (val % fv if fv else val) == 0]:
        k, d, probe = _trial_divide(d, probe, f, _PRIMES[f], math.inf)
        if k:
            out[f] = k
            if d.is_const():
                return out
    for piece, prime in certify_or_split(d):
        if prime:
            _PRIMES[piece] = _probe(piece)
        out[piece] = 1
    return out


def _lcm(Fs):
    """(L, [L / F for F in Fs], tops) for a sequence of factor lists.

    L takes the largest exponent of each factor, so prod L is a common
    multiple of them all; it is the least one when every factor is
    certified. tops[f] counts the lists that carry f with exponent L[f].
    """
    L = dict(Fs[0])
    tops = dict.fromkeys(L, 1)
    for F in Fs[1:]:
        for f, e in F.items():
            top = L.get(f, 0)
            if e > top:
                L[f] = e
                tops[f] = 1
            elif e == top:
                tops[f] += 1
    cofs = []
    for F in Fs:
        cof = {}
        if F != L:
            for f, e in L.items():
                k = e - F.get(f, 0)
                if k:
                    cof[f] = k
        cofs.append(cof)
    return L, cofs, tops


def _expand(F):
    """prod f^e over a factor list, cached."""
    if not F:
        return _POLY_ONE
    key = frozenset(F.items())
    p = _PRODUCTS.get(key)
    if p is None:
        (f, e), *rest = F.items()
        p = f**e
        for f, e in rest:
            p = p * f**e
        if len(_PRODUCTS) >= _PRODUCTS_CAP:
            _PRODUCTS.clear()
        _PRODUCTS[key] = p
    return p


def _scaled(p, k, F):
    """p * k * prod f^e over F."""
    p = p * k
    return p * _expand(F) if F else p


def _cancel(num, F, cands):
    """num divided by the largest divisor of prod f^F[f] that it has.

    Every factor of F that can share a factor with num must be in cands.
    F, owned by the caller, keeps the exponents left. Each factor is
    trial-divided once the probe allows it. An uncertified factor f can
    still share a proper part g with what is left of num, so a gcd follows:
    f is replaced by the factors of g and f / g, which become candidates.
    The gcd runs even when f^e has gone, because g can hold a certified
    prime that f hid and that F also lists on its own. A nonzero constant
    num is returned at once: no non-constant factor divides it.
    """
    if num.is_const():
        return num
    probe = None
    todo = list(cands)
    while todo:
        f = todo.pop()
        e = F.get(f)
        if not e:
            continue
        if probe is None:
            probe = _probe(num)
        fprobe = _PRIMES.get(f)
        k, num, probe = _trial_divide(num, probe, f, fprobe or _probe(f), e)
        e -= k
        if e:
            F[f] = e
        else:
            del F[f]
        if fprobe is not None:
            continue
        g = poly_gcd(num, f)
        if g.is_const():
            continue
        F.pop(f, None)
        for part in (g, exact_div(f, g)):
            if part.is_const():
                continue
            for b, x in _factor(part).items():
                if e:
                    F[b] = F.get(b, 0) + e * x
                todo.append(b)
    return num


def _lowest_terms(num, m, F):
    """(num, den, factor list) of num / (m * prod f^e over F).

    num must be coprime to every factor of F; this only makes the integer
    contents of numerator and denominator coprime.
    """
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE, _UNIT
    cn = integer_content(num)
    if type(cn) is int:
        g = math.gcd(cn, m)
    else:
        g = Fraction(math.gcd(cn.numerator, m), cn.denominator)
    if g != 1:
        num = num * (1 / Fraction(g))
        m = int(m / Fraction(g))
    if m == 1:
        return num, _expand(F), (m, F) if F else _UNIT
    return num, _expand(F) * m, (m, F)


def _den_factors(den):
    """The factor list (m, {f: e}) of a positive-leading integer den."""
    m = integer_content(den)
    if not den.is_const():
        return m, _factor(den * Fraction(1, m))
    return _UNIT if m == 1 else (m, {})


def _admit(num, den):
    """(num, den, factor list) of the reduced quotient of two polynomials."""
    num, den = _canon(num, den)
    fac = _den_factors(den)
    m, F = fac
    if not F:
        return num, den, fac
    return _lowest_terms(_cancel(num, F, list(F)), m, F)


class RationalFunction:
    """Reduced quotient of two momentum polynomials."""

    __slots__ = ("num", "den", "_fac")

    def __init__(self, num, den, _fac=None):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if _fac is None:
            num, den, _fac = _admit(num, den)
        self.num = num
        self.den = den
        # the factor list (m, {f: e}) of den
        self._fac = _fac

    @classmethod
    def from_poly(cls, p):
        """p / 1; an integer p is already in lowest terms on the unit list."""
        if all(type(c) is int for c in p.terms.values()):
            return _integral(p)
        return cls(p, Polynomial.one())

    @classmethod
    def const(cls, value):
        return cls.from_poly(Polynomial.const(value))

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    # ---- field operations ----

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def _plus(self, other, minus):
        """self + other, or self - other when minus; other is not negated:
        off the unit lists, the sign joins its integer scale."""
        if self.num.is_zero():
            return -other if minus else other
        if other.num.is_zero():
            return self
        if self._fac is _UNIT and other._fac is _UNIT:
            num = self.num - other.num if minus else self.num + other.num
            if num.is_zero():
                return RF_ZERO
            return RationalFunction(num, _POLY_ONE, _fac=_UNIT)
        (m1, F1), (m2, F2) = self._fac, other._fac
        m = math.lcm(m1, m2)
        L, (cof1, cof2), tops = _lcm((F1, F2))
        k2 = -(m // m2) if minus else m // m2
        num = _scaled(self.num, m // m1, cof1) + _scaled(other.num, k2, cof2)
        return _reduced_sum(num, m, L, _sum_candidates(L, tops))

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _fac=self._fac)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RF_ZERO
            m, F = self._fac
            num, den, fac = _lowest_terms(self.num * other, m, F)
            return RationalFunction(num, den, _fac=fac)
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        if self._fac is _UNIT and other._fac is _UNIT:
            return RationalFunction(self.num * other.num, _POLY_ONE, _fac=_UNIT)
        return _cross_product(self, other, 1)

    __rmul__ = __mul__

    def inv(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        num, den = _canon(self.den, self.num)
        return RationalFunction(num, den, _fac=_den_factors(den))

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.pretty()})"

    def pretty(self):
        num = self.num.pretty()
        if self.den == _POLY_ONE:
            return num
        den = self.den.pretty()
        # polynomial renders carry no parentheses, so plain scans suffice:
        # the numerator sits left of '/' and only a sum needs wrapping there,
        # while the denominator must be a single power-or-name factor
        ntxt = num if " " not in num else f"({num})"
        dtxt = den if _is_atomic_den(den) else f"({den})"
        return f"{ntxt}/{dtxt}"


def _cross_product(x, y, k):
    """k * x * y for nonzero x, y with cross-cancellation: each numerator is
    coprime to its own denominator, so it can only share factors the other
    one brings."""
    (m1, F1), (m2, F2) = x._fac, y._fac
    F = dict(F1)
    for f, e in F2.items():
        F[f] = F.get(f, 0) + e
    a = _cancel(x.num, F, [f for f in F2 if f not in F1])
    c = _cancel(y.num, F, [f for f in F1 if f not in F2])
    num, den, fac = _lowest_terms(a * c * k, m1 * m2, F)
    return RationalFunction(num, den, _fac=fac)


def _sum_candidates(L, tops, products=()):
    """The candidates of _cancel in a sum: every uncertified factor, every
    factor of an unreduced product's list, and the certified primes that at
    least two operands carry with their largest exponent (see the module
    docstring)."""
    return [f for f in L if f not in _PRIMES or tops[f] > 1 or f in products]


def _reduced_sum(num, m, L, cands):
    """num / (m * prod f^e over L) in lowest terms, where num is a sum of
    terms over that denominator and cands holds every factor of L that can
    share a factor with num."""
    if num.is_zero():
        return RF_ZERO
    num = _cancel(num, L, cands)
    num, den, fac = _lowest_terms(num, m, L)
    return RationalFunction(num, den, _fac=fac)


def _add_scaled(acc, k, a):
    """Add k * a to the term map acc, for a term map a."""
    get = acc.get
    for e, c in a.items():
        acc[e] = get(e, 0) + k * c


def _add_product(acc, k, a, b):
    """Add k * a * b to the term map acc, for term maps a and b. A zero
    coefficient of a, left by a partial sum that cancelled, is skipped."""
    get = acc.get
    for (a0, a1, a2, a3), ca in a.items():
        if not ca:
            continue
        ca *= k
        for (b0, b1, b2, b3), cb in b.items():
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            acc[e] = get(e, 0) + ca * cb


def _times_q(a):
    """The term map of a * Q, for a term map a."""
    out = {}
    _add_product(out, 1, a, Q_POLY.terms)
    return out


def _product_term(x, y, q):
    """(a, b, m, F) of x * y * Q^q, q 0 or 1, left unreduced: a * b is the
    numerator, as term maps, and m * prod f^e over F the denominator, with
    the operands' exponents added. Q lowers its own exponent when the list
    holds it, and multiplies b otherwise."""
    (m1, F1), (m2, F2) = x._fac, y._fac
    b = y.num.terms
    F = dict(F1)
    for f, e in F2.items():
        F[f] = F.get(f, 0) + e
    if q:
        e = F.pop(Q_POLY, 0)
        if e > 1:
            F[Q_POLY] = e - 1
        elif not e:
            b = _times_q(b)
    return x.num.terms, b, m1 * m2, F


def _unit_rf(acc):
    """The integer polynomial of the term map acc, with int coefficients,
    on the unit list: a trusted constructor that only drops zeros."""
    if acc:
        num = Polynomial.from_ints(acc)
        if num.terms:
            return RationalFunction(num, _POLY_ONE, _fac=_UNIT)
    return RF_ZERO


def _unit_sum(parts):
    """product_sum of terms on unit lists, in one term map."""
    acc = {}
    for k, x, y, q in parts:
        if y is None:
            _add_scaled(acc, k, x.num.terms)
        else:
            b = y.num.terms
            _add_product(acc, k, x.num.terms, _times_q(b) if q else b)
    return _unit_rf(acc)


def _cofactor_sum(parts):
    """product_sum of terms, not all on unit lists, over the lcm of their
    lists.

    The terms are grouped by cofactor L / F_i, with m // m_i folded into k:
    each group's products go into one term map, which its expanded cofactor
    multiplies once. _lcm runs over every term's own list, so tops counts
    terms, not groups."""
    terms, products = [], set()
    for k, x, y, q in parts:
        if y is None:
            terms.append((k, x.num.terms, None, *x._fac))
        else:
            a, b, m, F = _product_term(x, y, q)
            terms.append((k, a, b, m, F))
            products.update(F)
    m = math.lcm(*[t[3] for t in terms])
    L, cofs, tops = _lcm([t[4] for t in terms])
    groups = {}
    for (k, a, b, mi, _), cof in zip(terms, cofs):
        key = tuple(cof.items())
        group = groups.get(key)
        if group is None:
            group = groups[key] = (cof, {})
        if b is None:
            _add_scaled(group[1], k * (m // mi), a)
        else:
            _add_product(group[1], k * (m // mi), a, b)
    total = groups.pop((), (None, {}))[1]
    for cof, acc in groups.values():
        _add_product(total, 1, acc, _expand(cof).terms)
    num = Polynomial(total)
    return _reduced_sum(num, m, L, _sum_candidates(L, tops, products))


def product_sum(terms):
    """The sum of k * x * y * Q^q over terms (k, x, y, q), reduced once.

    k is an int and x a RationalFunction; y is one too, or None for x
    alone, and then q is 0. An operand alone is reduced; a product is left
    unreduced, and every factor of its list is a candidate of _cancel. On
    unit lists the products go into one term map, and on other lists one
    term map per cofactor (_cofactor_sum). A list of one operand alone is x
    itself for k = 1, -x for k = -1 and x * k otherwise, and one product
    with no Q is the binary one.
    """
    parts = [
        t for t in terms
        if t[0] and t[1].num.terms and (t[2] is None or t[2].num.terms)
    ]
    if not parts:
        return RF_ZERO
    k, x, y, q = parts[0]
    if len(parts) == 1 and y is None and k in (1, -1):
        return x if k == 1 else -x
    if all(
        x._fac is _UNIT and (y is None or y._fac is _UNIT) for _, x, y, _ in parts
    ):
        return _unit_sum(parts)
    if len(parts) == 1 and not q:
        return x * k if y is None else _cross_product(x, y, k)
    return _cofactor_sum(parts)


def _integral(p):
    """An integer polynomial on the unit list, with no _admit."""
    return RationalFunction(p, _POLY_ONE, _fac=_UNIT)


def _is_atomic_den(text):
    # the denominator must also not contain '*' (a/b*c parses as (a/b)*c)
    return " " not in text and "/" not in text and "*" not in text


def has_toplevel_space(text):
    """True when a space sits outside all parentheses (a sum needing parens)."""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == " " and depth == 0:
            return True
    return False


RF_ZERO = RationalFunction.from_poly(Polynomial.zero())
RF_ONE = RationalFunction.from_poly(Polynomial.one())
#: the factor list of Q; monomial_partial builds quotients over it as they
#: stand, which are in lowest terms only if Q is a certified prime
_Q_FAC = (1, _factor(Q_POLY))
if _Q_FAC[1] != {Q_POLY: 1} or Q_POLY not in _PRIMES:
    raise ConsistencyFailure(
        f"the mass square Q is not certified prime: factored as {_Q_FAC[1]}"
    )


class FieldElem:
    """Element a + b*M of the coefficient field."""

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a, b=RF_ZERO):
        self.a = a
        self.b = b
        self._hash = None

    @classmethod
    def const(cls, value):
        return cls(RationalFunction.const(value))

    @classmethod
    def from_poly(cls, p):
        return cls(RationalFunction.from_poly(p))

    @classmethod
    def momentum(cls, mu):
        return cls.from_poly(Polynomial.var(mu))

    @classmethod
    def monomial(cls, exps, with_m):
        """P[0]^e0 * ... * P[3]^e3 for exps = (e0, .., e3), times M when with_m."""
        p = _integral(Polynomial({exps: 1}))
        return cls(RF_ZERO, p) if with_m else cls(p)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def is_rational(self):
        """True when the element is a plain rational number."""
        return self.b.is_zero() and self.a.is_const()

    def is_integral(self):
        """True when both parts are integer polynomials (on the unit list),
        so as_quotient gives (self, 1, 1)."""
        return self.a._fac is _UNIT and self.b._fac is _UNIT

    # ---- field operations ----

    def __add__(self, other):
        return FieldElem(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return FieldElem(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return FieldElem(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            return FieldElem(self.a * other, self.b * other)
        if not isinstance(other, FieldElem):
            return NotImplemented  # so a float operand raises TypeError
        if self.b.is_zero() and other.b.is_zero():
            return FieldElem(self.a * other.a)
        return scaled_sum(((1, self, other),))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of the zero field element")
        if self.b.is_zero():
            return FieldElem(self.a.inv())
        norm = product_sum(((1, self.a, self.a, 0), (-1, self.b, self.b, 1)))
        if norm.is_zero():
            raise NotInvertible("field element with vanishing conjugate norm")
        ninv = norm.inv()
        return FieldElem(self.a * ninv, -(self.b * ninv))

    def __eq__(self, other):
        return isinstance(other, FieldElem) and self.a == other.a and self.b == other.b

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.a, self.b))
            self._hash = h
        return h

    def __repr__(self):
        return f"FieldElem({self.pretty()})"

    def as_quotient(self):
        """(N, d, 1/d), field elements with the element equal to N/d.

        N = A + B*M and d are integral: d is a common denominator of both
        parts, the least one when every factor of their lists is certified.
        1/d is built on the factor list of d that this computes, so d is not
        factored again.
        """
        a, b = self.a, self.b
        if a.den == b.den:
            A, B, d, fac = a.num, b.num, a.den, a._fac
        else:
            (ma, Fa), (mb, Fb) = a._fac, b._fac
            m = math.lcm(ma, mb)
            L, (cofa, cofb), _ = _lcm((Fa, Fb))
            A, B = _scaled(a.num, m // ma, cofa), _scaled(b.num, m // mb, cofb)
            fac = (m, L)
            d = _scaled(_POLY_ONE, *fac)
        return (FieldElem(_integral(A), _integral(B)), FieldElem(_integral(d)),
                FieldElem(RationalFunction(_POLY_ONE, d, _fac=fac)))

    def pretty(self):
        if self.b.is_zero():
            return self.a.pretty()
        bp = self.b.pretty()
        if bp == "1":
            btxt = "M"
        elif bp == "-1":
            btxt = "-M"
        elif not has_toplevel_space(bp):
            # division binds like '*', left to right, so a/b*M reads ((a/b)*M)
            btxt = f"{bp}*M"
        else:
            btxt = f"({bp})*M"
        if self.a.is_zero():
            return btxt
        if btxt.startswith("-"):
            return f"{self.a.pretty()} - {btxt[1:]}"
        return f"{self.a.pretty()} + {btxt}"


def monomial_partial(exps, with_m, v):
    """d/dP[v] of the unit monomial P^e, e = exps, times M when with_m.

    P^e gives e_v*P^(e-1_v). With M, d/dP[v] M = eta_vv*P[v]*M/Q follows
    from M^2 = Q, so P^e*M gives
    M*(e_v*P^(e-1_v)*Q + eta_vv*P^(e+1_v))/Q. That quotient is built as it
    stands on the factor list of Q: it is in lowest terms, as Q is a
    certified prime (checked at import) that does not divide P^(e+1_v).
    """
    ev = exps[v]
    down = (*exps[:v], ev - 1, *exps[v + 1:])
    if not with_m:
        if not ev:
            return FE_ZERO
        return FieldElem(_integral(Polynomial.from_ints({down: ev})))
    num = {(*exps[:v], ev + 1, *exps[v + 1:]): 1 if v == 0 else -1}
    if ev:
        _add_product(num, ev, {down: 1}, Q_POLY.terms)
    b = RationalFunction(Polynomial.from_ints(num), Q_POLY, _fac=_Q_FAC)
    return FieldElem(RF_ZERO, b)


def scaled_sum(terms, memo=None):
    """The sum of k * x * y over a nonempty list of terms (k, x, y), k an
    int and x, y FieldElems, y None for x alone. A list of one x alone
    returns x.

    A list of integral operands is summed in one pass: each part's products,
    a1*a2 + Q*b1*b2 and a1*b2 + b1*a2, go into one int term map. The first
    term decides whether the list is tried, before any map is made: a list
    whose first term is not integral, and a list with a later operand off
    the unit list (rare: the maps are dropped), take the general route, one
    product_sum per part.

    memo, a dict that the caller owns (an Algebra's sum memo), serves the
    general route only: a list with an operand whose factor list holds a
    polynomial is looked up under tuple(terms), compared by value, and its
    sum is stored there. remember empties the memo when it is full. A list
    of integral or rational operands is summed and never stored.
    """
    k, x, y = terms[0]
    if k == 1 and y is None and len(terms) == 1:
        return x
    if x.a._fac is _UNIT and x.b._fac is _UNIT and (
        y is None or y.a._fac is _UNIT and y.b._fac is _UNIT
    ):
        a, b = {}, {}
        for k, x, y in terms:
            xa, xb = x.a, x.b
            if xa._fac is not _UNIT or xb._fac is not _UNIT:
                break
            xa, xb = xa.num.terms, xb.num.terms
            if y is None:
                _add_scaled(a, k, xa)
                if xb:
                    _add_scaled(b, k, xb)
                continue
            ya, yb = y.a, y.b
            if ya._fac is not _UNIT or yb._fac is not _UNIT:
                break
            ya, yb = ya.num.terms, yb.num.terms
            _add_product(a, k, xa, ya)
            if yb:
                _add_product(b, k, xa, yb)
            if xb:
                if yb:
                    _add_product(a, k, xb, _times_q(yb))
                _add_product(b, k, xb, ya)
        else:
            return FieldElem(_unit_rf(a), _unit_rf(b))
    if memo is not None:
        for _, x, y in terms:
            if x.a._fac[1] or x.b._fac[1] or (
                y is not None and (y.a._fac[1] or y.b._fac[1])
            ):
                key = tuple(terms)
                c = memo.get(key)
                if c is None:
                    c = remember(memo, key, _parts_sum(terms))
                return c
    return _parts_sum(terms)


def _parts_sum(terms):
    """scaled_sum's general route: one product_sum per part."""
    a, b = [], []
    for k, x, y in terms:
        xa, xb = x.a, x.b
        if y is None:
            a.append((k, xa, None, 0))
            if xb.num.terms:
                b.append((k, xb, None, 0))
            continue
        ya, yb = y.a, y.b
        a.append((k, xa, ya, 0))
        if yb.num.terms:
            b.append((k, xa, yb, 0))
        if xb.num.terms:
            a.append((k, xb, yb, 1))
            b.append((k, xb, ya, 0))
    return FieldElem(product_sum(a), product_sum(b))


def remember(memo, key, value):
    """Store value under key in a sum memo and return it; the memo is
    emptied first when it holds SUM_MEMO_CAP entries."""
    if len(memo) >= SUM_MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


FE_ZERO = FieldElem(RF_ZERO)
FE_ONE = FieldElem(RF_ONE)
FE_M = FieldElem(RF_ZERO, RF_ONE)
FE_Q = FieldElem(_integral(Q_POLY))
