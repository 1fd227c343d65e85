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

Canonical form: RationalFunction stores a gcd-reduced numerator/denominator
pair with integer coefficients, coprime contents, and a positive-leading
denominator under graded lex, so equal values compare equal structurally.
All types are immutable and hashable.
"""

import math
from fractions import Fraction

from .errors import DivisionByZero, NotInvertible
from .poly import Polynomial, exact_div, integer_content, poly_gcd

_POLY_ONE = Polynomial.one()

#: the square of the mass symbol, P[0]^2 - P[1]^2 - P[2]^2 - P[3]^2
Q_POLY = (
    Polynomial.var(0) * Polynomial.var(0)
    - Polynomial.var(1) * Polynomial.var(1)
    - Polynomial.var(2) * Polynomial.var(2)
    - Polynomial.var(3) * Polynomial.var(3)
)


def _canon(num, den):
    """Normalize a fraction already free of common polynomial factors.

    Scales so both parts have integer coefficients with coprime contents and
    the denominator's leading coefficient is positive; with the polynomial
    gcd already removed this makes equal fractions structurally identical.
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


class RationalFunction:
    """Reduced quotient of two momentum polynomials."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den, _reduced=False):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = Polynomial.one()
            elif not den.is_const():
                q = exact_div(num, den)
                if q is not None:
                    num, den = q, Polynomial.one()
                else:
                    g = poly_gcd(num, den)
                    if not g.is_const():
                        num = exact_div(num, g)
                        den = exact_div(den, g)
            num, den = _canon(num, den)
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def from_poly(cls, p):
        return cls(p, Polynomial.one())

    @classmethod
    def const(cls, value):
        return cls.from_poly(Polynomial.const(value))

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def as_const(self):
        if self.den.is_const():
            return self.num.as_const() / self.den.as_const()
        raise ValueError("not a constant rational function")

    # ---- field operations ----

    def __add__(self, other):
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_const():
            num = self.num * other.den + other.num * self.den
            return RationalFunction(num, self.den * other.den)
        d1 = exact_div(self.den, g)
        d2 = exact_div(other.den, g)
        num = self.num * d2 + other.num * d1
        return RationalFunction(num, self.den * d2)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RF_ZERO
            num, den = _canon(self.num * other, self.den)
            return RationalFunction(num, den, _reduced=True)
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        # cross-cancellation keeps every gcd call small and leaves the
        # result fully reduced (the inputs are reduced, so the surviving
        # factors are pairwise coprime)
        a, b = self.num, self.den
        c, d = other.num, other.den
        g1 = poly_gcd(a, d)
        if not g1.is_const():
            a = exact_div(a, g1)
            d = exact_div(d, g1)
        g2 = poly_gcd(c, b)
        if not g2.is_const():
            c = exact_div(c, g2)
            b = exact_div(b, g2)
        num, den = _canon(a * c, b * d)
        return RationalFunction(num, den, _reduced=True)

    __rmul__ = __mul__

    def inv(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        num, den = _canon(self.den, self.num)
        return RationalFunction(num, den, _reduced=True)

    def __truediv__(self, other):
        return self * other.inv()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            self._hash = h
        return h

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
RF_Q = RationalFunction.from_poly(Q_POLY)


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

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def is_rational(self):
        """True when the element is a plain rational number."""
        return self.b.is_zero() and self.a.is_const()

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational constant")
        return self.a.as_const()

    # ---- field operations ----

    def __add__(self, other):
        return FieldElem(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return FieldElem(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return FieldElem(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.a * other, self.b * other)
        a1, b1 = self.a, self.b
        a2, b2 = other.a, other.b
        if b1.is_zero() and b2.is_zero():
            return FieldElem(a1 * a2)
        return FieldElem(a1 * a2 + b1 * b2 * RF_Q, a1 * b2 + b1 * a2)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of the zero field element")
        if self.b.is_zero():
            return FieldElem(self.a.inv())
        norm = self.a * self.a - self.b * self.b * RF_Q
        if norm.is_zero():
            raise NotInvertible("field element with vanishing conjugate norm")
        ninv = norm.inv()
        return FieldElem(self.a * ninv, -(self.b * ninv))

    def __truediv__(self, other):
        return self * other.inv()

    def conjugate(self):
        return FieldElem(self.a, -self.b)

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
        """(A, B, d) with the element equal to (A + B*M)/d over one denominator."""
        ad, bd = self.a.den, self.b.den
        if ad == bd:
            return self.a.num, self.b.num, ad
        g = poly_gcd(ad, bd)
        if g.is_const():
            return self.a.num * bd, self.b.num * ad, ad * bd
        bd_r = exact_div(bd, g)
        ad_r = exact_div(ad, g)
        return self.a.num * bd_r, self.b.num * ad_r, ad * bd_r

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


FE_ZERO = FieldElem(RF_ZERO)
FE_ONE = FieldElem(RF_ONE)
FE_M = FieldElem(RF_ZERO, RF_ONE)
FE_Q = FieldElem(RF_Q)
