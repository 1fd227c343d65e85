"""Noncommutative normal-ordering engine.

Operators are finite sums of words over eleven letters with coefficients in
the exact field of field.py. The letters, in normal order, are

    D < J[0,1] < J[0,2] < J[0,3] < J[1,2] < J[1,3] < J[2,3] < C[0] < C[1] < C[2] < C[3]

encoded as the integers 0..10. The four momenta and the mass symbol live in
the coefficient field, not in the alphabet. Normal form: every coefficient
stands to the left of its word and every word is sorted; moving a coefficient
through a letter uses g*f = f*g + (g, f), and swapping adjacent letters uses
the registry letter table. The derivation (g, f) is the momentum-space form
of the generator g, a differential operator in P[0..3] (Mack & Salam, Ann.
Phys. 53:174, 1969): it is built from the registry rules (g, P[nu]) and the
partial derivatives of the monomials of f. field.monomial_partial gives
those in closed form from the exponents, the derivatives of M following
from M^2 = Q, so (g, M) needs no rule of its own.

The bracket (x, y) is the commutator x*y - y*x, formed by bilinearity: for
terms f*u and g*w, (f*u, g*w) = f*g*(uw - wu) + f*R(u, g)*w - g*R(w, f)*u,
where R(u, g) = u*g - g*u is what moving g through u adds. Summed over both
operands, (x, y) = sum_u f*A_u - sum_w g*B_w, with
A_u = sum_w (g*(uw - wu) + R(u, g)*w) and B_w = sum_u R(w, f)*u. Each of
A_u and B_w is summed once, and the operand coefficient then multiplies each
of its nonzero words once, not each shifted term; a unit f multiplies
nothing, so its A_u is summed with the output. The word part uw - wu is
memoized with int coefficients, so the terms that cancel between x*y and
y*x are never formed. With the scaling baked into the registry tables its
structure constants are the integer ones of the operator algebra, so no
imaginary unit ever appears.

One routine sums products: combine forms sum_i k_i*op_i(x_i, y_i), each
op a product, a bracket, the symmetrized product or x alone and each k an
int or a Fraction, in one accumulator, and sums each output word once.
mul, bracket and dot are one term of it; combine expands dot(x, y) into
its two terms x*y - (x, y)/2. A bracket carries its sign k into its
accumulators, and a Fraction k = p/q collects its term on its own and adds
it as one scaled product p*(1/q)*c per word. The expression language sends
its +/- chains here, and the Jacobi residual is one combine of its three
brackets.

Engine methods take no rewrite budget: check_budget raises
RewriteBudgetExceeded when the operation_cost of two operands exceeds one,
where outside input becomes engine work (dsl products, the CLI bracket).
Letter words close under the letter table (D/J/C span a subalgebra) and
derivations only ever introduce D/J letters, so rewriting terminates; the
budget bounds operand size, not time.

The coefficients of an output word are collected in a list (_acc) of scaled
products k*x*y: an int k, such as a structure constant, times one or two
field elements. The list is summed once by field.scaled_sum (_summed) when an
operation returns or stores a memo entry: the products are summed unreduced
and each part is reduced once, so no product is formed on its own and no
sum is reduced after every binary addition. A part that an operand
coefficient f then multiplies (_acc_times, the A_u and B_w above) is summed
per word first, unless the word holds one operand alone, kc*g: that enters
the output as the product (k*kc)*f*g, with no sum of its own.

Moving a coefficient through a word is linear over its monomials, as the
derivation is. For an integral g = A + B*M (A, B integer polynomials), u*g is
the sum of c*(u*m) over the monomials c*m of A and M*B, and u*m is memoized
per word and monomial, so fresh coefficients over known monomials add no
memo entry; a G-algebra's multiplication table is keyed by exponents the
same way (Levandovskyy & Schönemann, ISSAC 2003). _shift hands back the
parts (c, m, u*m), and each caller adds c times each of their terms straight
to its own accumulator: no u*g is summed on its own. A non-integral g moves
whole and is memoized with its word. Both pass u's last letter a first:
a*m = m*a + (a, m) is the closed form of _deriv_mono, and a longer u moves
a*m through its head. So a letter's derivation (a, g) = a*g - g*a is read
from these entries (deriv), and has no memo of its own.

Confluence is certified, not sampled: tests/test_nc.py resolves every overlap
of the rules exactly (Bergman's diamond lemma). So the engine runs one rewrite
schedule and memoizes its rewrites in three Algebra memos; the derivation
of a letter on a whole coefficient is recomputed from their parts each time.
Randomized schedules live only in tests.

A fourth memo holds coefficient sums. The observables carry a few fixed
denominators (X[mu] carries P/M^2, S[mu] carries P/M), so the same lists
of scaled products over them are summed again and again, across
assignments and identities. _summed and _acc_times pass the sum memo to
scaled_sum, which stores a list only when one of its operands has a
polynomial denominator, keyed by the list and compared by value; integral
lists, which are most of the work on fresh coefficients, keep nothing. A
"/" (divide) inverts an integral divisor once and forms each product
through the same memo. The memo is emptied when it reaches
field.SUM_MEMO_CAP entries.
"""

from fractions import Fraction

from .errors import RewriteBudgetExceeded
from .field import (
    FE_M,
    FE_ONE,
    FieldElem,
    has_toplevel_space,
    monomial_partial,
    remember,
    scaled_sum,
)

# ---- letters -------------------------------------------------------------

LETTER_D = 0
_J_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_J_CODE = {pair: 1 + i for i, pair in enumerate(_J_PAIRS)}
N_LETTERS = 11

DEFAULT_BUDGET = 10**6
MIN_BUDGET = 10**3


def letter_J(mu, nu):
    """Letter code for J[mu, nu] with mu < nu."""
    return _J_CODE[(mu, nu)]


def letter_C(mu):
    return 7 + mu


def letter_name(code):
    if code == LETTER_D:
        return "D"
    if 1 <= code <= 6:
        mu, nu = _J_PAIRS[code - 1]
        return f"J[{mu},{nu}]"
    return f"C[{code - 7}]"


class NCExpr:
    """A normalized operator: map from sorted letter words to coefficients.

    Instances are produced by an Algebra and treated as immutable. The empty
    word holds the pure-coefficient part; the empty map is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def _plus(self, other, minus):
        """self + other, or self - other when minus; other is not negated."""
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            if s is None:
                out[w] = -c if minus else c
            else:
                s = s - c if minus else s + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
        return NCExpr(out)

    def __neg__(self):
        return NCExpr({w: -c for w, c in self.terms.items()})

    def scale(self, c):
        """self times c, an int, a Fraction or a FieldElem. A field has no
        zero divisors, so a nonzero c leaves every term nonzero."""
        if isinstance(c, FieldElem):
            zero = c.is_zero()
        else:
            zero = isinstance(c, (int, Fraction)) and not c
        if zero:
            return NCExpr({})
        return NCExpr({w: f * c for w, f in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, NCExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"NCExpr({self.pretty()})"

    def pretty(self):
        """Canonical text form; re-parses in the expression language."""
        if not self.terms:
            return "0"
        chunks = []
        for w in sorted(self.terms, key=lambda t: (-len(t), t)):
            c = self.terms[w]
            word_txt = "*".join(letter_name(l) for l in w)
            if not w:
                chunks.append(c.pretty())
                continue
            ctxt = c.pretty()
            if ctxt == "1":
                chunks.append(word_txt)
            elif ctxt == "-1":
                chunks.append("-" + word_txt)
            elif has_toplevel_space(ctxt):
                chunks.append(f"({ctxt})*{word_txt}")
            else:
                chunks.append(f"{ctxt}*{word_txt}")
        text = chunks[0]
        for part in chunks[1:]:
            if part.startswith("-"):
                text += " - " + part[1:]
            else:
                text += " + " + part
        return text


class Algebra:
    """Rewriting engine bound to a bracket registry.

    letter_table maps ordered letter pairs (a, b), a != b, to the bracket
    (a, b) as {word: int} with words of length <= 1. momentum_rules maps
    (letter, mu) to the derivation (letter, P[mu]) as {word: FieldElem}:
    a pure coefficient for D and J, single D or J letters for C. Every
    other derivation follows from these (see _deriv_mono); (C[mu], M) =
    2*M.X[mu] among them.

    Four memos live as long as the algebra: _word_memo (sorted letter
    words), _shift_memo (u * m for a word u and a unit-coefficient monomial
    m, and u * g for a non-integral coefficient g; see _shift), _comm_memo
    (uw - wu) and _sum_memo (coefficient sums over polynomial denominators,
    and the inverses of integral divisors; see field.scaled_sum and
    divide), the last emptied when it reaches field.SUM_MEMO_CAP (512)
    entries. deriv keeps none of its own: a letter's derivation on a
    monomial is its one-letter _shift_memo entry less m*a.
    No method checks a rewrite budget, so one algebra serves every budget.
    Each operation collects an output word's terms as scaled products
    k*x*y and reduces their sum once (_acc, _summed); every coefficient it
    returns or memoizes is reduced.
    """

    def __init__(self, letter_table, momentum_rules):
        self.letter_table = letter_table
        self.momentum_rules = momentum_rules
        self._word_memo = {}
        self._shift_memo = {}
        self._comm_memo = {}
        self._sum_memo = {}

    # ---- constructors ----

    def zero(self):
        return NCExpr({})

    def scalar(self, c):
        if not isinstance(c, FieldElem):
            c = FieldElem.const(c)
        if c.is_zero():
            return NCExpr({})
        return NCExpr({(): c})

    def one(self):
        return self.scalar(FE_ONE)

    def momentum(self, mu):
        return self.scalar(FieldElem.momentum(mu))

    def mass(self):
        return self.scalar(FE_M)

    def letter(self, code):
        return NCExpr({(code,): FE_ONE})

    def D(self):
        return self.letter(LETTER_D)

    def J(self, mu, nu):
        """J[mu, nu] for any index pair: antisymmetric, zero on the diagonal."""
        if mu == nu:
            return self.zero()
        if mu < nu:
            return self.letter(letter_J(mu, nu))
        return NCExpr({(letter_J(nu, mu),): -FE_ONE})

    def C(self, mu):
        return self.letter(letter_C(mu))

    # ---- letter-word sorting ----

    def _sort_word(self, w):
        """Normal-order a pure letter word: {word: int}."""
        hit = self._word_memo.get(w)
        if hit is not None:
            return hit
        i = self._inversion(w)
        if i is None:
            self._word_memo[w] = out = {w: 1}
            return out
        a, b = w[i], w[i + 1]
        out = dict(self._sort_word(w[:i] + (b, a) + w[i + 2:]))
        for mid, c in self.letter_table[(a, b)].items():
            corr = w[:i] + mid + w[i + 2:]
            for z, c2 in self._sort_word(corr).items():
                s = out.get(z, 0) + c * c2
                if s:
                    out[z] = s
                elif z in out:
                    del out[z]
        self._word_memo[w] = out
        return out

    def _inversion(self, w):
        """Where to swap next: the first adjacent pair out of order, or None."""
        return next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)

    # ---- derivation of a letter on a coefficient ----

    def _deriv_mono(self, a, m, out):
        """Accumulate the closed form of (a, m) in out, m a unit monomial.

        (a, m) = sum over nu of dot(d_nu m, Y_nu) with Y_nu = (a, P[nu]),
        and d_nu m is read off m's exponents (field.monomial_partial), with
        no quotient rule. A D or J rule Y_nu is a pure coefficient. The
        words of a C rule are single D or J letters w, and
        Y_nu*h = h*Y_nu + (w, h) for each, so each adds half its
        coefficient times (w, d_nu m).
        """
        with_m = m.a.is_zero()
        ((exps, _),) = (m.b if with_m else m.a).num.terms.items()
        for nu in range(4):
            h = monomial_partial(exps, with_m, nu)
            if h.is_zero():
                continue
            for w, c in self.momentum_rules[(a, nu)].items():
                _acc(out, w, h, c)
                if w:
                    half = c * Fraction(1, 2)
                    for z, e in self.deriv(w[0], h).items():
                        _acc(out, z, e, half)

    def deriv(self, a, g):
        """(a, g) = a*g - g*a for letter a and coefficient g, as
        {word: FieldElem}, formed by _acc_moved. A non-integral g is N/d
        (as_quotient, which gives 1/d with no factoring of its own), and
        the quotient rule takes (a, N) and (a, d). A rational g gives {}, as
        every derivation of a polynomial of degree 0 is empty.
        """
        out = {}
        memo = self._sum_memo
        if g.is_integral():
            self._acc_moved(out, (a,), g, ())
            return _summed(out, memo)
        N, d, dinv = g.as_quotient()
        # (a, N/d) = (a, N) * d^-1  +  N * (a, d^-1)
        #          = (a, N) * d^-1  -  (N * d^-1) * (a, d) * d^-1
        # and N * d^-1 is g itself, a pure left coefficient.
        num, dd, part = {}, {}, {}
        self._acc_moved(num, (a,), N, ())
        self._acc_moved(dd, (a,), d, ())
        for w, f, h, c in self._raw_mul_terms(_summed(num, memo), {(): dinv}):
            _acc(out, w, f, h, c)
        for w, f, h, c in self._raw_mul_terms(_summed(dd, memo), {(): dinv}):
            _acc(part, w, f, h, c)
        _acc_times(out, part, g, -1, memo)
        return _summed(out, memo)

    # ---- coefficient movement and products ----

    def _shift(self, u, g):
        """u * g for a nonempty sorted word u and a coefficient g, in parts.

        Returns a sequence of parts (c, m, moved), c an int, m a coefficient
        and moved = u*m normalized as {word: FieldElem}: u*g is the sum of
        c*h*z over the parts and the terms h*z of their moved. Nothing is
        summed across parts. An integral g has one part per monomial c*m of
        g.a.num and M*g.b.num, m with unit coefficient, and u*m is memoized
        under (u, exps, with_m); any other g is one part (1, g, u*g),
        memoized under (u, g). Parts are shared and read-only. Callers move
        a rational g themselves (u*g = g*u), though this is exact for it too.
        """
        memo = self._shift_memo
        if not g.is_integral():
            key = (u, g)
            parts = memo.get(key)
            if parts is None:
                a = u[-1]
                terms = (((a,), g), *self.deriv(a, g).items())
                parts = ((1, g, self._moved(u[:-1], terms)),)
                memo[key] = parts
            return parts
        a, b = g.a.num.terms, g.b.num.terms
        if len(a) + len(b) == 1:
            ((exps, c),) = (a or b).items()
            key = (u, exps, not a)
            parts = memo.get(key) or self._shift_mono(key)
            if c == 1:
                return parts
            (_, m, moved), = parts
            return ((c, m, moved),)
        parts = []
        for with_m, terms in ((False, a), (True, b)):
            for exps, c in terms.items():
                key = (u, exps, with_m)
                (_, m, moved), = memo.get(key) or self._shift_mono(key)
                parts.append((c, m, moved))
        return parts

    def _shift_mono(self, key):
        """Memoize and return the one-part sequence ((1, m, u*m),) for
        key = (u, exps, with_m), m the unit-coefficient monomial of exps
        and with_m; _shift looks the key up first. For one letter a,
        a*m = m*a + (a, m) in closed form; a longer u is head * (a*m)."""
        u, exps, with_m = key
        m = FieldElem.monomial(exps, with_m)
        a = u[-1]
        if len(u) == 1:
            out = {u: [(1, m, None)]}
            self._deriv_mono(a, m, out)
            moved = _summed(out, self._sum_memo)
        else:
            (_, _, am), = self._shift((a,), m)
            moved = self._moved(u[:-1], am.items())
        parts = ((1, m, moved),)
        self._shift_memo[key] = parts
        return parts

    def _moved(self, head, terms):
        """head * (the sum of h*w over the pairs (w, h) of terms), summed:
        each h moves through head, and head may be empty."""
        sort = self._sort_word
        out = {}
        for w, h in terms:
            if not head or h.is_rational():
                for zw, c in sort(head + w).items():
                    _acc(out, zw, h, None, c)
                continue
            for c, _, moved in self._shift(head, h):
                for z, e in moved.items():
                    for zw, c2 in sort(z + w).items():
                        _acc(out, zw, e, None, c * c2)
        return _summed(out, self._sum_memo)

    def _raw_mul_terms(self, xterms, yterms):
        """Product of two term maps, yielding unmerged terms (word, f, h, c),
        each the scaled product c*f*h with c an int, for _acc. Each part of
        a moved coefficient is yielded on its own (see _shift)."""
        sort = self._sort_word
        for u, f in xterms.items():
            if not u:
                for w, g in yterms.items():
                    yield w, f, g, 1
                continue
            for w, g in yterms.items():
                if g.is_rational():
                    if not w:
                        yield u, f, g, 1
                    else:
                        for zw, c in sort(u + w).items():
                            yield zw, f, g, c
                    continue
                for c, _, moved in self._shift(u, g):
                    for z, h in moved.items():
                        if not w:
                            yield z, f, h, c
                        else:
                            for zw, c2 in sort(z + w).items():
                                yield zw, f, h, c * c2

    # ---- public operations ----

    def combine(self, terms):
        """The sum of k*op(x, y) over terms (k, op, x, y), summed once.

        op is "*" (x*y), "br" (the bracket (x, y)), "." (the symmetrized
        product, two terms: x*y - (x, y)/2) or None (x alone; y is unused),
        and k an int or a Fraction. Every term goes into one accumulator.
        The terms are read in order, so an iterator can build each one after
        the previous one is accumulated.
        """
        out = {}
        for k, op, x, y in terms:
            if op == ".":
                self._acc_term(out, k, "*", x, y)
                self._acc_term(out, k * Fraction(-1, 2), "br", x, y)
            else:
                self._acc_term(out, k, op, x, y)
        return NCExpr(_summed(out, self._sum_memo))

    def _acc_term(self, out, k, op, x, y):
        """Accumulate k*op(x, y) in out. A Fraction k = p/q collects the
        term in a part of its own, which enters as p*(1/q) times each
        summed word."""
        if type(k) is int:
            self._acc_op(out, k, op, x, y)
        else:
            part = {}
            self._acc_op(part, 1, op, x, y)
            _acc_times(out, part, FieldElem.const(Fraction(1, k.denominator)),
                       k.numerator, self._sum_memo)

    def _acc_op(self, out, k, op, x, y):
        """Accumulate k*op(x, y) in out, for an int k and op not "."."""
        if op == "*":
            for w, f, h, c in self._raw_mul_terms(x.terms, y.terms):
                _acc(out, w, f, h, k * c)
        elif op == "br":
            self._bracket_acc(x, y, out, k)
        else:
            for w, f in x.terms.items():
                _acc(out, w, f, None, k)

    def mul(self, x, y):
        return self.combine(((1, "*", x, y),))

    def dot(self, x, y):
        """Symmetrized product (x*y + y*x)/2, formed as x*y - (x, y)/2."""
        return self.combine(((1, ".", x, y),))

    def bracket(self, x, y):
        """The scaled commutator x*y - y*x."""
        return self.combine(((1, "br", x, y),))

    def divide(self, x, c):
        """x / c for a coefficient c, which raises DivisionByZero when zero.

        The inverse of an integral c is stored in the sum memo under c, so
        each divisor is inverted once; each product f * c^-1 is a one-term
        scaled_sum through the same memo.
        """
        memo = self._sum_memo
        if c.is_integral():
            inv = memo.get(c)
            if inv is None:
                inv = remember(memo, c, c.inv())
        else:
            inv = c.inv()
        return NCExpr({
            w: scaled_sum(((1, f, inv),), memo) for w, f in x.terms.items()
        })

    def _bracket_acc(self, x, y, out, k):
        """Accumulate k*(x, y) in out, as sum_u f*A_u - sum_w g*B_w over the
        terms f*u of x and g*w of y (see the module docstring). A word moves
        only a non-rational coefficient; each operand's are picked once."""
        ys = [(w, g, not g.is_rational()) for w, g in y.terms.items()]
        for u, f in x.terms.items():
            # a unit coefficient multiplies nothing: A_u goes straight to out
            unit = f is FE_ONE
            part, ku = (out, k) if unit else ({}, 1)
            for w, g, moves in ys:
                for z, c in self._comm(u, w).items():
                    _acc(part, z, g, None, ku * c)
                if u and moves:
                    self._acc_moved(part, u, g, w, ku)
            if part and not unit:
                _acc_times(out, part, f, k, self._sum_memo)
        xs = [(u, f) for u, f in x.terms.items() if not f.is_rational()]
        for w, g, _ in ys:
            if not w:
                continue
            part = {}
            for u, f in xs:
                self._acc_moved(part, w, f, u)
            if part:
                _acc_times(out, part, g, -k, self._sum_memo)

    def _comm(self, u, w):
        """uw - wu for sorted words u, w: {word: int}, shared, read-only."""
        if not u or not w:
            return {}
        key = (u, w)
        hit = self._comm_memo.get(key)
        if hit is not None:
            return hit
        out = dict(self._sort_word(u + w))
        for z, c in self._sort_word(w + u).items():
            s = out.get(z, 0) - c
            if s:
                out[z] = s
            else:
                out.pop(z, None)
        self._comm_memo[key] = out
        return out

    def _acc_moved(self, out, u, g, w, k=1):
        """Accumulate k*R(u, g)*w in out, R(u, g) = u*g - g*u, for a nonempty
        u and a non-rational g: over the parts (c, m, u*m) of _shift(u, g),
        c*(u*m less m*u). A part whose word u carries exactly m adds
        nothing there."""
        sort = self._sort_word
        for c, m, moved in self._shift(u, g):
            kc = k * c
            for z, h in moved.items():
                less_m = z == u
                if less_m and (h is m or h == m):
                    continue
                if not w:
                    _acc(out, z, h, None, kc)
                    if less_m:
                        _acc(out, z, m, None, -kc)
                else:
                    for zw, c2 in sort(z + w).items():
                        _acc(out, zw, h, None, kc * c2)
                        if less_m:
                            _acc(out, zw, m, None, -kc * c2)

    def normalize(self, x):
        """Idempotent re-canonicalization of an expression's term map."""
        out = {}
        for u, f in x.terms.items():
            for w, c in self._sort_word(u).items():
                _acc(out, w, f, None, c)
        return NCExpr(_summed(out, self._sum_memo))


def operation_cost(x, y):
    """The cost of mul(x, y) or bracket(x, y): the sum over term pairs
    (u, w) of 1 + len(u) + len(w). It reads operand sizes only."""
    nx, lx = len(x.terms), sum(map(len, x.terms))
    ny, ly = len(y.terms), sum(map(len, y.terms))
    return nx * ny + ny * lx + nx * ly


def check_budget(budget, x, y):
    """Raise RewriteBudgetExceeded when operation_cost(x, y) exceeds budget."""
    cost = operation_cost(x, y)
    if cost > budget:
        raise RewriteBudgetExceeded(
            f"operation cost {cost} exceeds the rewrite budget of {budget}"
        )


def _acc(out, w, x, y=None, k=1):
    """Add the term k*x*y*w (k*x*w when y is None) to the accumulator out:
    {word: [(k, x, y)]}, a list of scaled products for field.scaled_sum."""
    s = out.get(w)
    if s is None:
        out[w] = [(k, x, y)]
    else:
        s.append((k, x, y))


def _acc_times(out, part, f, k, memo):
    """Add k*f times the accumulator part to out: each list of part is
    summed once, through the sum memo memo, and its nonzero sum enters out
    as one scaled product. A list of one operand alone, kc*g, enters as the
    product (k*kc)*f*g."""
    for w, ts in part.items():
        if len(ts) == 1:
            kc, g, h = ts[0]
            if h is None:
                _acc(out, w, f, g, k * kc)
                continue
        c = scaled_sum(ts, memo)
        if not c.is_zero():
            _acc(out, w, f, c, k)


def _summed(out, memo):
    """{word: FieldElem} of an accumulator, each list summed once through
    the sum memo memo, zeros dropped."""
    res = {}
    for w, ts in out.items():
        c = scaled_sum(ts, memo)
        if not c.is_zero():
            res[w] = c
    return res

