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
partial derivatives of f, and (g, M) follows from M^2 = Q.

The bracket (x, y) is the commutator x*y - y*x, formed term by term: for
terms f*u and g*w, (f*u, g*w) = f*g*(uw - wu) + f*R(u, g)*w - g*R(w, f)*u,
where R(u, g) = u*g - g*u is what moving g through u adds. The word part
uw - wu is memoized with int coefficients, so the terms that cancel between
x*y and y*x are never formed. With the scaling baked into the registry
tables its structure constants are the integer ones of the operator
algebra, so no imaginary unit ever appears.

Engine methods take no rewrite budget: check_budget raises
RewriteBudgetExceeded when the operation_cost of two operands exceeds one,
where outside input becomes engine work (dsl products, the CLI bracket).
Letter words close under the letter table (D/J/C span a subalgebra) and
derivations only ever introduce D/J letters, so rewriting terminates; the
budget bounds operand size, not time.

The coefficients of an output word are collected in a list (_acc) and summed
once by field.fe_sum (_summed) when an operation returns or stores a memo
entry, so each is reduced once rather than after every binary addition.

Confluence is certified, not sampled: tests/test_nc.py resolves every overlap
of the rules exactly (Bergman's diamond lemma). So the engine runs one rewrite
schedule and memoizes its rewrites in the four Algebra memos; the derivation
of a letter on a whole coefficient is recomputed from their parts each time.
Randomized schedules live only in tests.
"""

from fractions import Fraction

from .errors import RewriteBudgetExceeded
from .field import FE_ONE, FE_M, FieldElem, fe_sum, has_toplevel_space

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
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            if s is None:
                out[w] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[w]
                else:
                    out[w] = s
        return NCExpr(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCExpr({w: -c for w, c in self.terms.items()})

    def scale(self, c):
        """self times c, an int, a Fraction or a FieldElem."""
        out = {w: f * c for w, f in self.terms.items()}
        return NCExpr({w: f for w, f in out.items() if not f.is_zero()})

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
    words), _shift_memo (u * g for a word u and coefficient g), _mono_memo
    (a letter's derivation on a monomial) and _comm_memo (uw - wu). deriv
    keeps none of its own; its results are rebuilt from the last three.
    No method checks a rewrite budget, so one algebra serves every budget.
    """

    def __init__(self, letter_table, momentum_rules):
        self.letter_table = letter_table
        self.momentum_rules = momentum_rules
        self._word_memo = {}
        self._shift_memo = {}
        self._mono_memo = {}
        self._comm_memo = {}

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

    def _deriv_mono(self, a, exps, with_m):
        """(a, g) for the unit-coefficient monomial g, in closed form.

        (a, g) = sum over nu of dot(d_nu g, Y_nu) with Y_nu = (a, P[nu]).
        A D or J rule Y_nu is a pure coefficient. The words of a C rule are
        single D or J letters w, and Y_nu*h = h*Y_nu + (w, h) for each, so
        each adds half its coefficient times (w, d_nu g).
        """
        key = (a, exps, with_m)
        hit = self._mono_memo.get(key)
        if hit is not None:
            return hit
        g = FieldElem.monomial(exps, with_m)
        out = {}
        for nu in range(4):
            h = g.partial(nu)
            if h.is_zero():
                continue
            for w, c in self.momentum_rules[(a, nu)].items():
                _acc(out, w, h * c)
                if w:
                    for z, e in self.deriv(w[0], h).items():
                        _acc(out, z, e * c * Fraction(1, 2))
        out = _summed(out)
        self._mono_memo[key] = out
        return out

    def _deriv_poly(self, a, p, with_m, out):
        """Accumulate (a, p) in out for a polynomial p, times M when with_m."""
        for exps, c in p.terms.items():
            for w, h in self._deriv_mono(a, exps, with_m).items():
                _acc(out, w, h * c)

    def deriv(self, a, g):
        """(a, g) for letter a and coefficient g, as {word: FieldElem}.

        as_quotient writes g as (A + B*M)/d and gives 1/d with it; the
        quotient rule below needs no factoring of its own. A rational g
        gives {}, as every derivation of a polynomial of degree 0 is empty.
        """
        A, B, d, dinv = g.as_quotient()
        num = {}
        self._deriv_poly(a, A, False, num)
        self._deriv_poly(a, B, True, num)
        num = _summed(num)
        if dinv == FE_ONE:
            return num
        # (a, N/d) = (a, N) * d^-1  +  N * (a, d^-1)
        #          = (a, N) * d^-1  -  (N * d^-1) * (a, d) * d^-1
        # and N * d^-1 is g itself, a pure left coefficient.
        dd = {}
        self._deriv_poly(a, d, False, dd)
        out = {}
        for w, c in self._raw_mul_terms(num, {(): dinv}):
            _acc(out, w, c)
        for w, c in self._raw_mul_terms(_summed(dd), {(): dinv}):
            _acc(out, w, -(g * c))
        return _summed(out)

    # ---- coefficient movement and products ----

    def _shift(self, u, g):
        """u * g normalized, u a sorted word, g a coefficient: {word: FieldElem}."""
        if not u:
            return {u: g}
        if g.is_rational():
            return {u: g}
        key = (u, g)
        hit = self._shift_memo.get(key)
        if hit is not None:
            return hit
        head, a = u[:-1], u[-1]
        out = {}
        for z, h in self._shift(head, g).items():
            for zw, c in self._sort_word(z + (a,)).items():
                _acc(out, zw, h * c)
        for zd, hd in self.deriv(a, g).items():
            for z2, h2 in self._shift(head, hd).items():
                for zw, c in self._sort_word(z2 + zd).items():
                    _acc(out, zw, h2 * c)
        out = _summed(out)
        self._shift_memo[key] = out
        return out

    def _raw_mul_terms(self, xterms, yterms):
        """Product of two term maps, yielding (word, coeff) pairs (unmerged)."""
        for u, f in xterms.items():
            for w, g in yterms.items():
                if not u:
                    yield w, f * g
                    continue
                for z, h in self._shift(u, g).items():
                    fh = f * h
                    if not w:
                        yield z, fh
                    else:
                        for zw, c in self._sort_word(z + w).items():
                            yield zw, fh * c

    # ---- public operations ----

    def mul(self, x, y):
        out = {}
        for w, c in self._raw_mul_terms(x.terms, y.terms):
            _acc(out, w, c)
        return NCExpr(_summed(out))

    def dot(self, x, y):
        """Symmetrized product (x*y + y*x) / 2."""
        half = Fraction(1, 2)
        return (self.mul(x, y) + self.mul(y, x)).scale(half)

    def bracket(self, x, y):
        """The scaled commutator x*y - y*x, formed term by term (see the
        module docstring)."""
        out = {}
        for u, f in x.terms.items():
            for w, g in y.terms.items():
                comm = self._comm(u, w)
                if comm:
                    fg = f * g
                    for z, c in comm.items():
                        _acc(out, z, fg * c)
                if u and not g.is_rational():
                    self._acc_moved(out, f, u, g, w)
                if w and not f.is_rational():
                    self._acc_moved(out, -g, w, f, u)
        return NCExpr(_summed(out))

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

    def _acc_moved(self, out, f, u, g, w):
        """Accumulate f*R(u, g)*w in out, R(u, g) = u*g - g*u: _shift(u, g) less g*u."""
        for z, h in self._shift(u, g).items():
            if z == u:
                if h == g:
                    continue
                h = h - g
            fh = f * h
            if not w:
                _acc(out, z, fh)
            else:
                for zw, c in self._sort_word(z + w).items():
                    _acc(out, zw, fh * c)

    def normalize(self, x):
        """Idempotent re-canonicalization of an expression's term map."""
        out = {}
        for u, f in x.terms.items():
            for w, c in self._sort_word(u).items():
                _acc(out, w, f * c)
        return NCExpr(_summed(out))


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


def _acc(out, w, c):
    """Add the term c*w to the accumulator out: {word: [FieldElem]}."""
    s = out.get(w)
    if s is None:
        out[w] = [c]
    else:
        s.append(c)


def _summed(out):
    """{word: FieldElem} of an accumulator, each list summed once, zeros dropped."""
    res = {}
    for w, cs in out.items():
        c = fe_sum(cs)
        if not c.is_zero():
            res[w] = c
    return res

