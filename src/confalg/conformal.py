"""Definition of the conformal operator algebra.

Fifteen generators: four momenta P[mu] (which live in the coefficient field),
six antisymmetric J[mu,nu], the dilatation D and four C[mu]. The bracket
table, with eta = diag(1,-1,-1,-1):

    (P[mu], P[nu])   = 0
    (J[mu,nu], P[rho]) = eta[nu,rho] P[mu] - eta[mu,rho] P[nu]
    (J[mu,nu], J[rho,sig]) = eta[nu,rho] J[mu,sig] + eta[mu,sig] J[nu,rho]
                             - eta[mu,rho] J[nu,sig] - eta[nu,sig] J[mu,rho]
    (D, P[mu])       = P[mu]
    (D, J[mu,nu])    = 0
    (P[mu], C[nu])   = -2 eta[mu,nu] D - 2 J[mu,nu]
    (J[mu,nu], C[rho]) = eta[nu,rho] C[mu] - eta[mu,rho] C[nu]
    (D, C[mu])       = -C[mu]
    (C[mu], C[nu])   = 0

This module turns the table into: structure constants over the generator
basis, the rewrite registry of the engine (the letter table and the momentum
rules; the engine derives each letter's mass rule, checked against M^2 = Q),
a classical oracle of polynomial vector fields on spacetime, and an exact 6x6
matrix representation with metric signature (+,-,-,-,-,+). The three
realizations are checked against each other pair by pair; they share nothing
but the table above, so agreement is meaningful.
"""

from itertools import combinations

from .errors import ConsistencyFailure
from .field import FE_M, FE_Q, FieldElem
from .nc import (
    Algebra,
    LETTER_D,
    letter_C,
    letter_J,
    letter_name,
    NCExpr,
)
from .poly import Polynomial

# ---- metric and orientation ----------------------------------------------

_ETA_DIAG = (1, -1, -1, -1)


def eta(mu, nu):
    """Metric component eta[mu, nu], diagonal (+1, -1, -1, -1)."""
    if mu == nu:
        return _ETA_DIAG[mu]
    return 0


def eps4(i, j, k, l):
    """Totally antisymmetric symbol on lower indices, eps[0,1,2,3] = +1."""
    idx = (i, j, k, l)
    if len(set(idx)) < 4:
        return 0
    return (-1) ** sum(a > b for a, b in combinations(idx, 2))


# ---- generator basis ------------------------------------------------------

def gen_P(mu):
    return ("P", mu)


def gen_J(mu, nu):
    return ("J", mu, nu)


def gen_D():
    return ("D",)


def gen_C(mu):
    return ("C", mu)


GENERATORS = tuple(
    [gen_P(mu) for mu in range(4)]
    + [gen_J(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]
    + [gen_D()]
    + [gen_C(mu) for mu in range(4)]
)


def gen_name(g):
    if g[0] == "P":
        return f"P[{g[1]}]"
    return letter_name(_LETTER_OF_GEN[g])


def _add_gen(out, g, coeff):
    if coeff == 0:
        return
    out[g] = out.get(g, 0) + coeff
    if out[g] == 0:
        del out[g]


def _add_J_gen(out, mu, nu, coeff):
    if mu == nu:
        return
    if mu > nu:
        mu, nu = nu, mu
        coeff = -coeff
    _add_gen(out, gen_J(mu, nu), coeff)


def table_bracket(a, b):
    """Structure constants of (a, b) over the generator basis: {gen: int}."""
    ka, kb = a[0], b[0]
    out = {}
    if (ka, kb) == ("J", "P"):
        mu, nu, rho = a[1], a[2], b[1]
        _add_gen(out, gen_P(mu), eta(nu, rho))
        _add_gen(out, gen_P(nu), -eta(mu, rho))
    elif (ka, kb) == ("P", "J"):
        for g, c in table_bracket(b, a).items():
            _add_gen(out, g, -c)
    elif (ka, kb) == ("J", "J"):
        mu, nu, rho, sig = a[1], a[2], b[1], b[2]
        _add_J_gen(out, mu, sig, eta(nu, rho))
        _add_J_gen(out, nu, rho, eta(mu, sig))
        _add_J_gen(out, nu, sig, -eta(mu, rho))
        _add_J_gen(out, mu, rho, -eta(nu, sig))
    elif (ka, kb) == ("D", "P"):
        _add_gen(out, gen_P(b[1]), 1)
    elif (ka, kb) == ("P", "D"):
        _add_gen(out, gen_P(a[1]), -1)
    elif (ka, kb) == ("P", "C"):
        mu, nu = a[1], b[1]
        _add_gen(out, gen_D(), -2 * eta(mu, nu))
        _add_J_gen(out, mu, nu, -2)
    elif (ka, kb) == ("C", "P"):
        mu, nu = b[1], a[1]  # P index first, matching the line above negated
        _add_gen(out, gen_D(), 2 * eta(mu, nu))
        _add_J_gen(out, mu, nu, 2)
    elif (ka, kb) == ("J", "C"):
        mu, nu, rho = a[1], a[2], b[1]
        _add_gen(out, gen_C(mu), eta(nu, rho))
        _add_gen(out, gen_C(nu), -eta(mu, rho))
    elif (ka, kb) == ("C", "J"):
        for g, c in table_bracket(b, a).items():
            _add_gen(out, g, -c)
    elif (ka, kb) == ("D", "C"):
        _add_gen(out, gen_C(b[1]), -1)
    elif (ka, kb) == ("C", "D"):
        _add_gen(out, gen_C(a[1]), 1)
    # (P,P), (D,D), (C,C), (D with itself) all vanish
    return out


# ---- registry construction ------------------------------------------------

_LETTER_GENS = (
    [(LETTER_D, gen_D())]
    + [(letter_J(mu, nu), gen_J(mu, nu)) for mu in range(4) for nu in range(mu + 1, 4)]
    + [(letter_C(mu), gen_C(mu)) for mu in range(4)]
)
LETTER_CODES = tuple(code for code, _ in _LETTER_GENS)
_LETTER_OF_GEN = {g: code for code, g in _LETTER_GENS}


def _gen_word(g):
    """Letter word for a non-momentum generator."""
    return (_LETTER_OF_GEN[g],)


def letter_table():
    table = {}
    for a, ga in _LETTER_GENS:
        for b, gb in _LETTER_GENS:
            if a == b:
                continue
            entry = {}
            for g, c in table_bracket(ga, gb).items():
                entry[_gen_word(g)] = c
            table[(a, b)] = entry
    return table


def momentum_rules():
    rules = {}
    for code, g in _LETTER_GENS:
        for mu in range(4):
            entry = {}
            for h, c in table_bracket(g, gen_P(mu)).items():
                if h[0] == "P":
                    fe = FieldElem.momentum(h[1]) * c
                    prev = entry.get(())
                    entry[()] = fe if prev is None else prev + fe
                else:
                    entry[_gen_word(h)] = FieldElem.const(c)
            rules[(code, mu)] = {w: c for w, c in entry.items() if not c.is_zero()}
    return rules


def mass_rule_residual(alg, code):
    """(a,M)*M + M*(a,M) - (a,Q) for the letter a; zero iff consistent."""
    rule = NCExpr(alg.deriv(code, FE_M))
    m = alg.mass()
    lhs = alg.mul(rule, m) + alg.mul(m, rule)
    rhs = NCExpr(alg.deriv(code, FE_Q))
    return lhs - rhs


def build_algebra():
    """The full rewrite engine, once every letter's mass rule (a, M), which
    the engine derives, has passed its check against M^2 = Q."""
    alg = Algebra(letter_table(), momentum_rules())
    for code in LETTER_CODES:
        residual = mass_rule_residual(alg, code)
        if not residual.is_zero():
            raise ConsistencyFailure(
                f"mass rule for letter {code} breaks M^2 = Q: "
                f"{residual.pretty()}"
            )
    return alg


def gen_expr(alg, g):
    """A generator as an engine expression."""
    if g[0] == "P":
        return alg.momentum(g[1])
    return alg.letter(_LETTER_OF_GEN[g])


def table_expr(alg, coeffs):
    """A structure-constant combination as an engine expression."""
    total = alg.zero()
    for g, c in coeffs.items():
        total = total + gen_expr(alg, g).scale(c)
    return total


def jacobi_residual(alg, a, b, c, pair):
    """((a,b),c) - (a,(b,c)) + (b,(a,c)); pair(x, y) gives the bracket (x, y)
    of two generators, so a caller can share them across calls."""
    t1 = alg.bracket(pair(a, b), gen_expr(alg, c))
    t2 = alg.bracket(gen_expr(alg, a), pair(b, c))
    t3 = alg.bracket(gen_expr(alg, b), pair(a, c))
    return t1 - t2 + t3


# ---- classical oracle: polynomial vector fields on spacetime --------------

def _x_lower(mu):
    return Polynomial.var(mu) * eta(mu, mu)


def classical_deformation(g):
    """Spacetime deformation field of a generator: four polynomials in x."""
    kind = g[0]
    zero = Polynomial.zero()
    if kind == "P":
        nu = g[1]
        return tuple(Polynomial.const(1) if mu == nu else zero for mu in range(4))
    if kind == "J":
        al, be = g[1], g[2]
        out = []
        for mu in range(4):
            p = zero
            if mu == al:
                p = p + _x_lower(be)
            if mu == be:
                p = p - _x_lower(al)
            out.append(p)
        return tuple(out)
    if kind == "D":
        return tuple(Polynomial.var(mu) for mu in range(4))
    nu = g[1]
    xsq = Polynomial.zero()
    for rho in range(4):
        xsq = xsq + _x_lower(rho) * Polynomial.var(rho)
    out = []
    for mu in range(4):
        p = _x_lower(nu) * Polynomial.var(mu) * 2
        if mu == nu:
            p = p - xsq
        out.append(p)
    return tuple(out)


def vector_field_bracket(da, db):
    """Lie bracket of two deformation fields, component by component."""
    out = []
    for mu in range(4):
        p = Polynomial.zero()
        for nu in range(4):
            p = p + db[nu] * da[mu].derivative(nu) - da[nu] * db[mu].derivative(nu)
        out.append(p)
    return tuple(out)


def classical_residual(a, b):
    """Oracle check for one pair: bracket of fields minus the table's field."""
    actual = vector_field_bracket(classical_deformation(a), classical_deformation(b))
    expected = [Polynomial.zero()] * 4
    for g, c in table_bracket(a, b).items():
        dg = classical_deformation(g)
        expected = [expected[mu] + dg[mu] * c for mu in range(4)]
    return tuple(actual[mu] - expected[mu] for mu in range(4))


# ---- exact matrix representation ------------------------------------------

# int entries, like the structure constants, so the check runs on int arithmetic
_G6 = (1, -1, -1, -1, -1, 1)


def _mat_zero():
    return tuple(tuple(0 for _ in range(6)) for _ in range(6))


def _mat_basis(a, b):
    """Rotation generator in the 4+2-dimensional metric (+,-,-,-,-,+)."""
    rows = [[0] * 6 for _ in range(6)]
    rows[a][b] = _G6[b]
    rows[b][a] = -_G6[a]
    return tuple(tuple(r) for r in rows)


def _mat_add(x, y, sign=1):
    return tuple(
        tuple(x[i][j] + sign * y[i][j] for j in range(6)) for i in range(6)
    )


def _mat_scale(x, c):
    return tuple(tuple(x[i][j] * c for j in range(6)) for i in range(6))


def _mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(6)) for j in range(6))
        for i in range(6)
    )


def _mat_comm(x, y):
    return _mat_add(_mat_mul(x, y), _mat_mul(y, x), sign=-1)


def matrix_rep(g):
    """Exact 6x6 matrix of one generator."""
    kind = g[0]
    if kind == "J":
        return _mat_basis(g[1], g[2])
    if kind == "D":
        return _mat_basis(4, 5)
    if kind == "P":
        return _mat_add(_mat_basis(g[1], 4), _mat_basis(g[1], 5))
    return _mat_add(_mat_basis(g[1], 5), _mat_basis(g[1], 4), sign=-1)


def matrix_residual(a, b):
    """Commutator of the two matrices minus the table's combination."""
    expected = _mat_zero()
    for g, c in table_bracket(a, b).items():
        expected = _mat_add(expected, _mat_scale(matrix_rep(g), c))
    return _mat_add(_mat_comm(matrix_rep(a), matrix_rep(b)), expected, sign=-1)
