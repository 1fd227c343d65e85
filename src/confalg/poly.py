"""Exact polynomials in four commuting symbols.

The same class serves two roles: polynomials in the four momentum components
(the coefficient ring of the operator engine) and polynomials in the four
spacetime coordinates (the classical vector-field oracle). A polynomial is a
map from exponent vectors (e0, e1, e2, e3) to nonzero exact rationals; the
zero polynomial is the empty map. A coefficient is stored as an int when it
is integral and as a Fraction only when it is not, so the integer-primitive
polynomials of the coefficient field run on int arithmetic throughout.

Monomials are ordered graded-lex with symbol 0 most significant. "Leading"
below always means leading under that order.
"""

import math

from fractions import Fraction

from .errors import ConsistencyFailure

NVARS = 4

_ZERO_EXP = (0, 0, 0, 0)


def _grlex_key(exps):
    return (sum(exps), exps)


def _coeff(c):
    """c as a stored coefficient: an int when integral, else a Fraction."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(
        f"polynomial coefficients are int or Fraction, not {type(c).__name__}"
    )


def _int_text(n):
    """The decimal digits of the int n, exactly, however many it has.

    str(n) refuses an int longer than the interpreter's digit limit
    (sys.get_int_max_str_digits, 4,300 digits by default); such an n is
    split at about half its digits until every piece converts, and the
    limit is left as it is. Every other n prints as str(n).
    """
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    # log10(2)/2 > 0.15, so k is below half the digits and hi is nonzero
    k = n.bit_length() * 3 // 20
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _quo(a, b):
    """a / b exactly; an int when both are ints and b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class Polynomial:
    """Immutable sparse polynomial over the rationals in four symbols.

    Do not mutate the term dict after construction; hashes are cached.
    The constructor accepts int and Fraction coefficients, zero or not, and
    stores each as an int when it is integral, so equal polynomials have equal
    terms however their coefficients were spelled; anything else, a float
    included, raises TypeError.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        # a zero is dropped only once _coeff accepts it, so 0.0 is rejected too
        out = {e: c for e, c in terms.items() if c or _coeff(c)}
        for c in out.values():
            if type(c) is not int:
                out = {e: _coeff(c) for e, c in out.items()}
                break
        self.terms = out
        self._hash = None

    # ---- constructors ----

    @classmethod
    def zero(cls):
        return _P_ZERO

    @classmethod
    def one(cls):
        return _P_ONE

    @classmethod
    def const(cls, value):
        p = cls({_ZERO_EXP: value})
        return p if p.terms else _P_ZERO

    @classmethod
    def from_ints(cls, terms):
        """The polynomial of a term map whose coefficients are all int.

        The coefficients are trusted, not checked: zeros are dropped and
        nothing else is done to them.
        """
        p = cls.__new__(cls)
        p.terms = {e: c for e, c in terms.items() if c}
        p._hash = None
        return p

    @classmethod
    def var(cls, i, power=1):
        e = [0, 0, 0, 0]
        e[i] = power
        return cls({tuple(e): 1})

    # ---- predicates ----

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def degree_in(self, v):
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def leading(self):
        """(exponent vector, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # ---- ring operations ----

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def _plus(self, other, minus):
        """self + other, or self - other when minus; other is not negated."""
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = -c if minus else c
            else:
                s = s - c if minus else s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial(out)

    def __neg__(self):
        return Polynomial({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _P_ZERO
            n, d = other.numerator, other.denominator
            if d != 1:
                return Polynomial({e: _quo(c * n, d) for e, c in self.terms.items()})
            if n == 1:
                return self
            return Polynomial({e: c * n for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if not a or not b:
            return _P_ZERO
        if len(a) > len(b):
            a, b = b, a
        b = b.items()
        out = {}
        get = out.get
        for (a0, a1, a2, a3), ca in a.items():
            for (b0, b1, b2, b3), cb in b:
                e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                out[e] = get(e, 0) + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not n:
            return _P_ONE
        # floor(log2 n) squarings and popcount(n) - 1 products, from the
        # lowest set bit of n up
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                out = out * base
            n >>= 1
        return out

    def derivative(self, v):
        out = {}
        for e, c in self.terms.items():
            k = e[v]
            if k:
                e2 = list(e)
                e2[v] = k - 1
                out[tuple(e2)] = c * k
        return Polynomial(out)

    # ---- equality / hashing ----

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            self._hash = h
        return h

    def __repr__(self):
        return f"Polynomial({self.pretty()})"

    # ---- printing ----

    def pretty(self, names=("P[0]", "P[1]", "P[2]", "P[3]")):
        """Render in the expression language (monomials in descending order)."""
        if not self.terms:
            return "0"
        chunks = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            factors = []
            for v in range(NVARS):
                if e[v] == 1:
                    factors.append(names[v])
                elif e[v] > 1:
                    factors.append(f"{names[v]}^{_int_text(e[v])}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            else:
                if type(mag) is int:
                    body = _int_text(mag)
                else:
                    body = f"{_int_text(mag.numerator)}/{_int_text(mag.denominator)}"
                if factors:
                    body += "*" + "*".join(factors)
            chunks.append(("-" if c < 0 else "+", body))
        sign, body = chunks[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text


_P_ZERO = Polynomial({})
_P_ONE = Polynomial({_ZERO_EXP: 1})


#####################################################################
# exact division and gcd
#####################################################################

def exact_div(f, d):
    """f / d when d divides f exactly, else None.

    Single-divisor reduction under graded-lex: when d | f every reduction
    step finds a divisible leading term, so a failed step proves
    indivisibility. Both sides are keyed by (total degree, e0, e1, e2, e3)
    while reducing, so the leading term of the remainder is a plain max.
    """
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return _P_ZERO
    div = {(sum(e),) + e: c for e, c in d.terms.items()}
    ed = max(div)
    dg, d0, d1, d2, d3 = ed
    cd = div[ed]
    rem = {(sum(e),) + e: c for e, c in f.terms.items()}
    quot = {}
    while rem:
        er = max(rem)
        rg, r0, r1, r2, r3 = er
        if r0 < d0 or r1 < d1 or r2 < d2 or r3 < d3:
            return None
        qg, q0, q1, q2, q3 = rg - dg, r0 - d0, r1 - d1, r2 - d2, r3 - d3
        cq = _quo(rem[er], cd)
        quot[(q0, q1, q2, q3)] = cq
        for (xg, x0, x1, x2, x3), c2 in div.items():
            e = (qg + xg, q0 + x0, q1 + x1, q2 + x2, q3 + x3)
            s = rem.get(e, 0) - cq * c2
            if s:
                rem[e] = s
            else:
                del rem[e]
    return Polynomial(quot)


def integer_content(p):
    """Positive rational c such that p / c has coprime integer coefficients.

    An int when p has integer coefficients, else a Fraction. The zero
    polynomial has content 1 by convention.
    """
    if p.is_zero():
        return 1
    coeffs = p.terms.values()
    try:
        return math.gcd(*coeffs)
    except TypeError:  # a Fraction coefficient
        pass
    num = 0
    den = 1
    for c in coeffs:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(num, den)


def _int_primitive(p):
    """p scaled to coprime integer coefficients (zero stays zero)."""
    if p.is_zero():
        return p
    c = integer_content(p)
    return p * (1 if c == 1 else Fraction(1, c))


def _positive_leading(p):
    if p.is_zero():
        return p
    _, c = p.leading()
    return -p if c < 0 else p


def _to_univar(p, v):
    """Dense coefficient list in symbol v; entries are polynomials without v."""
    deg = p.degree_in(v)
    coeffs = [dict() for _ in range(deg + 1)]
    for e, c in p.terms.items():
        e2 = list(e)
        k = e2[v]
        e2[v] = 0
        coeffs[k][tuple(e2)] = c
    return [Polynomial(d) for d in coeffs]


def _from_univar(coeffs, v):
    out = {}
    for k, poly in enumerate(coeffs):
        for e, c in poly.terms.items():
            e2 = list(e)
            e2[v] = k
            out[tuple(e2)] = c
    return Polynomial(out)


def _trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _prem(A, B):
    """Pseudo-remainder of univariate A by B (coefficient lists, deg A >= deg B).

    Computes the remainder of lb^(dA-dB+1) * A by B where lb is B's leading
    coefficient, so no coefficient division is ever needed.
    """
    dB = len(B) - 1
    lb = B[-1]
    R = list(A)
    for k in range(len(A) - 1 - dB, -1, -1):
        top = R[dB + k]
        R = [r * lb for r in R[: dB + k]]
        if not top.is_zero():
            for i in range(dB):
                R[i + k] = R[i + k] - top * B[i]
    return _trim(R)


def _content_of_list(coeffs):
    g = _P_ZERO
    for c in coeffs:
        g = _gcd_inner(g, c)
        if g == _P_ONE:
            return g
    return g


_SPECIALIZE_POINTS = ((2, 3, 5), (3, 5, 7), (5, 7, 11), (2, 9, 31))


def _eval_coeff(poly, v, point):
    """Value at an integer point of an integer polynomial free of v."""
    others = [u for u in range(NVARS) if u != v]
    total = 0
    for e, c in poly.terms.items():
        for u, x in zip(others, point):
            if e[u]:
                c = c * x ** e[u]
        total += c
    return total


def _univar_rem(a, b):
    """A nonzero integer multiple of the remainder of a by b (int lists).

    Each step scales the running remainder by lb / gcd(top, lb) instead of
    dividing by lb, so the degrees, which are all the caller reads, are
    those of the remainder over the rationals.
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        k = len(r) - 1 - db
        top = r.pop()
        g = math.gcd(top, lb)
        s, t = lb // g, top // g
        if s != 1:
            r = [x * s for x in r]
        for i in range(db):
            r[i + k] -= t * b[i]
        while r and r[-1] == 0:
            r.pop()
    return r


def _univar_primitive(r):
    """Divide a nonempty int coefficient list by its content.

    Plain Euclid doubles coefficient digits per step; stripping the content
    after every remainder keeps them near the size of the inputs, which is
    what makes the specialization check cheap.
    """
    g = math.gcd(*r)
    return r if g == 1 else [c // g for c in r]


def _coprime_by_specialization(F, G, v):
    """True when the primitive parts F, G are provably coprime.

    Any common divisor h has positive degree in v (contents are already
    split off), and specializing the other symbols at a point where both
    leading coefficients survive preserves deg_v of every factor, so h maps
    to a common univariate divisor of positive degree. A degree-zero
    univariate gcd at such a point therefore certifies coprimality; a
    degenerate or unlucky point proves nothing and the next one is tried,
    and only when every point fails does the caller pay for the full
    remainder cascade.
    """
    for point in _SPECIALIZE_POINTS:
        a = [_eval_coeff(c, v, point) for c in F]
        b = [_eval_coeff(c, v, point) for c in G]
        if not a or not b or a[-1] == 0 or b[-1] == 0:
            continue
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _univar_rem(_univar_primitive(a), _univar_primitive(b))
        if len(a) == 1:
            return True
    return False


def _coprime(f, g):
    """True when integer polynomials f, g are provably coprime.

    A common divisor of nonzero f and g has positive degree in some symbol
    that both contain; _coprime_by_specialization rules that out symbol by
    symbol, with no content split (a content factor free of v has degree 0
    in v anyway).
    """
    return bool(f.terms and g.terms) and all(
        _coprime_by_specialization(_to_univar(f, v), _to_univar(g, v), v)
        for v in range(NVARS)
        if f.degree_in(v) > 0 and g.degree_in(v) > 0
    )


def _monomial_gcd(f, g):
    """gcd when either side is a single term: min exponents, integer content."""
    mins = tuple(map(min, *f.terms, *g.terms))
    return Polynomial({mins: math.gcd(*f.terms.values(), *g.terms.values())})


def _gcd_inner(f, g):
    """gcd of integer-coefficient polynomials, integer content included.

    Returns the positive-leading primitive-times-integer gcd. Recursive
    subresultant PRS: pick the first symbol that occurs, split content off
    the univariate coefficient lists, run the Euclidean loop on
    pseudo-remainders, dividing each one by the factor the subresultant
    theory guarantees (so the loop itself never computes a content).
    """
    if f.is_zero():
        return _positive_leading(g)
    if g.is_zero():
        return _positive_leading(f)
    if len(f.terms) == 1 or len(g.terms) == 1:
        return _monomial_gcd(f, g)
    # both inputs have two or more terms, so some symbol occurs
    v = next(v for v in range(NVARS) if f.degree_in(v) > 0 or g.degree_in(v) > 0)
    F = _to_univar(f, v)
    G = _to_univar(g, v)
    cf = _content_of_list(F)
    cg = _content_of_list(G)
    ppF = F if cf == _P_ONE else [exact_div(c, cf) for c in F]
    ppG = G if cg == _P_ONE else [exact_div(c, cg) for c in G]
    c = _gcd_inner(cf, cg)
    if _coprime_by_specialization(ppF, ppG, v):
        return c
    A, B = (ppF, ppG) if len(ppF) >= len(ppG) else (ppG, ppF)
    gk = _P_ONE
    hk = _P_ONE
    while B:
        delta = len(A) - len(B)
        R = _prem(A, B)
        if R:
            beta = gk * hk**delta
            if beta != _P_ONE:
                R = [exact_div(x, beta) for x in R]
                if None in R:
                    raise ConsistencyFailure(
                        "subresultant factor does not divide the pseudo-remainder"
                    )
        lead = B[-1]
        A, B = B, R
        gk = lead
        if delta == 1:
            hk = gk
        elif delta > 1:
            hk = exact_div(gk**delta, hk ** (delta - 1))
            if hk is None:
                raise ConsistencyFailure("subresultant scale factor is not exact")
    cA = _content_of_list(A)
    if cA != _P_ONE:
        A = [exact_div(x, cA) for x in A]
    gcd_pp = _from_univar(A, v)
    return _positive_leading(_int_primitive(gcd_pp) * c)


def poly_gcd(f, g):
    """Primitive positive-leading gcd over the rationals.

    Rational content is discarded: the result is an integer-primitive
    polynomial with positive leading coefficient (1 for coprime inputs).
    """
    if f.is_zero() and g.is_zero():
        return _P_ZERO
    fi = _int_primitive(f)
    gi = _int_primitive(g)
    if _coprime(fi, gi):
        return _P_ONE
    out = _gcd_inner(fi, gi)
    return _positive_leading(_int_primitive(out))


def certify_or_split(p):
    """Pieces of a non-constant primitive positive-leading integer polynomial.

    Returns [(piece, prime), ...]: pairwise coprime primitive positive-leading
    pieces whose product is p, prime being True when the piece is proved
    irreducible. A piece is split along its content in each symbol; content
    and primitive part are coprime, because a common factor would divide the
    primitive part's content. With unit content in v, a piece of degree 1 in
    v is prime, since a factor free of v would divide that content. So is a
    piece a*v^2 + b*v + c whose discriminant b^2 - 4ac is not a square at
    some integer point: a split (r*v + s)(t*v + u) makes the discriminant
    (r*u - s*t)^2 identically. Any other piece comes back with prime False,
    whether or not it is irreducible.
    """
    for v in range(NVARS):
        deg = p.degree_in(v)
        if not deg:
            continue
        coeffs = _to_univar(p, v)
        # two coprime coefficients prove a unit content without a gcd
        short = sorted((x for x in coeffs if x.terms), key=lambda x: len(x.terms))
        if len(short) < 2 or not _coprime(short[0], short[1]):
            c = _content_of_list(short)
            if not c.is_const():
                return certify_or_split(c) + certify_or_split(exact_div(p, c))
        if deg == 1 or deg == 2 and any(
            not _is_square(b * b - 4 * a * c0)
            for c0, b, a in (
                [_eval_coeff(x, v, point) for x in coeffs]
                for point in _SPECIALIZE_POINTS
            )
        ):
            return [(p, True)]
    return [(p, False)]


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n
