"""Word rewriting over the extension field: canonical ordering, products,
brackets, derivations, the rewrite budget, and the confluence certificate."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import memo_sizes, partial

from confalg import conformal, dsl, field, suites
from confalg.conformal import (
    GENERATORS,
    build_algebra,
    gen_expr,
    letter_table,
    mass_rule_residual,
    momentum_rules,
)
from confalg.errors import ConfalgError, RewriteBudgetExceeded
from confalg.field import FE_M, FE_ONE, FieldElem
from confalg.dsl import Bin, elaborate, parse
from confalg.nc import (
    DEFAULT_BUDGET,
    LETTER_D,
    MIN_BUDGET,
    Algebra,
    N_LETTERS,
    NCExpr,
    check_budget,
    letter_name,
    operation_cost,
)
from confalg.observables import Observables


@pytest.fixture(scope="module")
def alg():
    return build_algebra()


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_normalize_reorders_letters(alg):
    # moving D through C[0] picks up the bracket term: C[0]*D = D*C[0] + C[0]
    got = alg.normalize(alg.mul(alg.C(0), alg.D()))
    want = alg.mul(alg.D(), alg.C(0)) + alg.C(0)
    assert got == want
    assert got.pretty() == "D*C[0] + C[0]"


def test_product_pushes_momentum_coefficients_left(alg):
    # momenta live in the coefficient field; commuting one through D costs
    # the derivation term: D*P[0] = P[0]*D + P[0]
    got = alg.mul(alg.D(), alg.momentum(0))
    want = alg.mul(alg.momentum(0), alg.D()) + alg.momentum(0)
    assert got == want
    assert got.pretty() == "P[0]*D + P[0]"


def _rand_expr(alg, rng):
    pool = (
        alg.D(),
        alg.J(0, 1),
        alg.J(1, 3),
        alg.J(2, 3),
        alg.C(0),
        alg.C(2),
        alg.momentum(1),
        alg.momentum(3),
        alg.mass(),
    )
    x = pool[rng.randrange(len(pool))]
    if rng.random() < 0.5:
        x = alg.mul(x, pool[rng.randrange(len(pool))])
    if rng.random() < 0.3:
        x = x + pool[rng.randrange(len(pool))]
    return x


def test_normalize_idempotent(alg):
    rng = random.Random(20260830)
    for _ in range(60):
        x = _rand_expr(alg, rng)
        n = alg.normalize(x)
        assert alg.normalize(n) == n


def test_full_reversal_normalizes(alg):
    # one word holding every letter in reverse canonical order exercises the
    # whole pair table in a single normalize call
    w = tuple(range(N_LETTERS - 1, -1, -1))
    n = alg.normalize(NCExpr({w: FE_ONE}))
    assert not n.is_zero()
    assert alg.normalize(n) == n


# ---------------------------------------------------------------------------
# brackets and products
# ---------------------------------------------------------------------------

def test_bracket_examples(alg):
    assert alg.bracket(alg.D(), alg.momentum(0)) == alg.momentum(0)
    assert alg.bracket(alg.momentum(1), alg.C(1)) == alg.D().scale(2)
    assert alg.bracket(alg.C(0), alg.C(1)).is_zero()
    assert alg.bracket(alg.J(0, 1), alg.momentum(1)) == -alg.momentum(0)


def test_scalars_reject_floats(alg):
    with pytest.raises(TypeError):
        alg.scalar(0.5)
    with pytest.raises(TypeError):
        alg.D().scale(0.1)
    assert alg.D().scale(Fraction(1, 2)) == alg.mul(alg.scalar(Fraction(1, 2)), alg.D())


def test_dot_symmetrizes(alg):
    # dot(x, y) = (x*y + y*x)/2, so dot(D, P[0]) = P[0]*D + P[0]/2
    got = alg.dot(alg.D(), alg.momentum(0))
    assert got.pretty() == "P[0]*D + P[0]/2"
    rng = random.Random(20260831)
    for _ in range(40):
        x = _rand_expr(alg, rng)
        y = _rand_expr(alg, rng)
        assert alg.dot(x, y) == alg.dot(y, x)


def test_bracket_antisymmetry(alg):
    rng = random.Random(20260901)
    for _ in range(40):
        x = _rand_expr(alg, rng)
        y = _rand_expr(alg, rng)
        assert alg.bracket(x, y) == -alg.bracket(y, x)


def test_bracket_leibniz(alg):
    rng = random.Random(20260902)
    for _ in range(30):
        a = _rand_expr(alg, rng)
        b = _rand_expr(alg, rng)
        c = _rand_expr(alg, rng)
        lhs = alg.bracket(a, alg.mul(b, c))
        rhs = alg.mul(alg.bracket(a, b), c) + alg.mul(b, alg.bracket(a, c))
        assert lhs == rhs


def test_bracket_jacobi(alg):
    rng = random.Random(20260903)
    for _ in range(20):
        a = _rand_expr(alg, rng)
        b = _rand_expr(alg, rng)
        c = _rand_expr(alg, rng)
        total = (
            alg.bracket(a, alg.bracket(b, c))
            + alg.bracket(b, alg.bracket(c, a))
            + alg.bracket(c, alg.bracket(a, b))
        )
        assert total.is_zero()


# ---------------------------------------------------------------------------
# the direct bracket against the two products it replaced
# ---------------------------------------------------------------------------

def _commutator(alg, x, y):
    """x*y - y*x from two full products: the slow path, kept as a reference."""
    return alg.mul(x, y) - alg.mul(y, x)


def _roster(alg):
    """The generators, the mass, and the observables at a few indices."""
    obs = Observables(alg)
    return (
        [gen_expr(alg, g) for g in GENERATORS]
        + [alg.mass(), obs.X(2), obs.S(1), obs.sigma(1), obs.xi(2)]
        + [obs.tau(), obs.V(3)]
    )


def _rand_tree(alg, pool, rng, depth=3):
    """A random sum/product tree over the pool, scaled leaves included."""
    if depth == 0 or rng.random() < 0.35:
        e = pool[rng.randrange(len(pool))]
        if rng.random() < 0.3:
            e = e.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return e
    x = _rand_tree(alg, pool, rng, depth - 1)
    y = _rand_tree(alg, pool, rng, depth - 1)
    return alg.mul(x, y) if rng.random() < 0.55 else x + y


def test_bracket_matches_products_on_roster(alg):
    roster = _roster(alg)
    assert len(roster) == 22
    mismatched = [
        (i, j)
        for i, x in enumerate(roster)
        for j, y in enumerate(roster)
        if alg.bracket(x, y) != _commutator(alg, x, y)
    ]
    assert not mismatched


def _random_pairs(algebra, count):
    """count pairs of random depth-3 trees, the same draws on every algebra."""
    rng = random.Random(20261018)
    pool = [
        algebra.D(), algebra.J(0, 1), algebra.J(1, 3), algebra.J(2, 3),
        algebra.C(0), algebra.C(2), algebra.momentum(1),
        algebra.momentum(3), algebra.mass(),
    ]
    for _ in range(count):
        x = _rand_tree(algebra, pool, rng)
        yield x, _rand_tree(algebra, pool, rng)


def test_bracket_matches_products_on_random_pool(random_schedule_algebra):
    # every draw is compared on both algebras, so the factored bracket's
    # per-word cancellation is checked without memos too; the memo-less
    # algebra runs it without its commutator memo, and its largest draw
    # (draw 11, a 9 x 49-term pair) takes 2-3 s there
    for algebra, count in ((build_algebra(), 60), (random_schedule_algebra(5), 20)):
        for k, (x, y) in enumerate(_random_pairs(algebra, count)):
            assert algebra.bracket(x, y) == _commutator(algebra, x, y), k
    assert not algebra._comm_memo


def test_dot_matches_products_on_random_pool(random_schedule_algebra):
    # dot is formed as x*y - (x, y)/2; the reference is the two products
    half = Fraction(1, 2)
    for algebra, count in ((build_algebra(), 60), (random_schedule_algebra(7), 20)):
        for k, (x, y) in enumerate(_random_pairs(algebra, count)):
            want = (algebra.mul(x, y) + algebra.mul(y, x)).scale(half)
            assert algebra.dot(x, y) == want, k


# ---------------------------------------------------------------------------
# combine against the fold of separately formed terms
# ---------------------------------------------------------------------------

_COMBINE_KS = (1, -1, 2, -3, 0, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3))


def _term_value(alg, k, op, x, y):
    """k*op(x, y) formed on its own, as one top-level operation and a scale."""
    if op is None:
        value = x
    elif op == ".":
        value = (alg.mul(x, y) + alg.mul(y, x)).scale(Fraction(1, 2))
    else:
        value = alg.mul(x, y) if op == "*" else alg.bracket(x, y)
    return value.scale(k)


def _combine_operands(alg):
    """Edge operands: zero, unit and non-unit coefficients, M, and a scalar."""
    p0, p1 = FieldElem.momentum(0), FieldElem.momentum(1)
    return [
        alg.zero(),
        alg.C(0),
        alg.mass(),
        alg.scalar(Fraction(3, 2)),
        alg.mul(alg.scalar(p1 * (p0 + FE_M).inv()), alg.J(0, 1)),
        alg.C(1).scale(Fraction(-2, 3)) + alg.D().scale(FE_M) + alg.momentum(2),
    ]


def test_combine_matches_the_fold_of_its_terms(alg):
    assert alg.combine(()).is_zero()
    assert alg.combine(iter(())).is_zero()
    pairs = list(itertools.product(_combine_operands(alg), repeat=2))
    pairs += list(_random_pairs(alg, 12))
    rng = random.Random(20261020)
    for n in range(160):
        terms = []
        for _ in range(rng.randint(1, 4)):
            x, y = pairs[rng.randrange(len(pairs))]
            op = rng.choice(("*", "br", ".", None))
            terms.append((rng.choice(_COMBINE_KS), op, x, y))
        want = alg.zero()
        for term in terms:
            want = want + _term_value(alg, *term)
        assert alg.combine(terms) == want, n
    # every term kind against every edge operand pair, one term at a time
    for x, y in pairs[:36]:
        for k in _COMBINE_KS:
            for op in ("*", "br", ".", None):
                assert alg.combine([(k, op, x, y)]) == _term_value(alg, k, op, x, y)


def test_combine_matches_the_fold_without_memos(random_schedule_algebra):
    algebra = random_schedule_algebra(9)
    pairs = list(itertools.product(_combine_operands(algebra), repeat=2))
    rng = random.Random(20261021)
    for n in range(40):
        terms = [
            (rng.choice(_COMBINE_KS), rng.choice(("*", "br", ".", None)),
             *pairs[rng.randrange(len(pairs))])
            for _ in range(rng.randint(2, 4))
        ]
        want = algebra.zero()
        for term in terms:
            want = want + _term_value(algebra, *term)
        assert algebra.combine(terms) == want, n


def test_lone_operands_pass_through_acc_times(monkeypatch,
                                              random_schedule_algebra):
    # brackets and products of operands whose coefficients are quotients or
    # integral with an M part, against the memo-less reference; a part that
    # holds one operand alone, kc*g, enters the output as the product
    # (k*kc)*f*g, so _acc_times never sums such a part on its own
    from confalg import nc

    ref = random_schedule_algebra(35)
    rng = random.Random(20261035)
    draws = []
    for n in range(16):
        ops = []
        for kind in ("quotient", "integral")[n % 2:] + ("quotient", "integral")[:n % 2]:
            g = _rand_coefficient(rng, kind)
            if kind == "integral" and g.b.is_zero():
                g = g + FE_M * FieldElem.momentum(rng.randrange(4))
            u = tuple(rng.randrange(N_LETTERS) for _ in range(rng.randint(1, 2)))
            ops.append(ref.normalize(NCExpr({u: g})))
        x, y = ops
        draws.append((x, y, ref.mul(x, y), ref.mul(y, x)))

    lone = {"parts": 0, "summed": 0}
    inside = [False]
    acc_times, summed = nc._acc_times, nc.scaled_sum

    def traced_acc_times(out, part, f, k=1):
        lone["parts"] += sum(len(ts) == 1 and ts[0][2] is None for ts in part.values())
        inside[0] = True
        try:
            acc_times(out, part, f, k)
        finally:
            inside[0] = False

    def traced_scaled_sum(terms):
        if inside[0] and len(terms) == 1 and terms[0][2] is None:
            lone["summed"] += 1
        return summed(terms)

    monkeypatch.setattr(nc, "_acc_times", traced_acc_times)
    monkeypatch.setattr(nc, "scaled_sum", traced_scaled_sum)
    alg = build_algebra()
    for n, (x, y, xy, yx) in enumerate(draws):
        assert alg.mul(x, y) == xy, n
        assert alg.bracket(x, y) == xy - yx, n
        assert alg.combine(((2, "br", y, x), (Fraction(1, 3), "*", x, y))) == (
            (yx - xy).scale(2) + xy.scale(Fraction(1, 3))), n
    assert lone["parts"] > 0
    assert lone["summed"] == 0


def test_scale_by_zero_and_nonzero_scalars(alg):
    x = _combine_operands(alg)[-1]
    assert len(x.terms) == 3 and any(not c.b.is_zero() for c in x.terms.values())
    for zero in (0, Fraction(0), field.FE_ZERO):
        assert x.scale(zero).is_zero() and not x.scale(zero).terms
    # a field has no zero divisors: a nonzero scalar keeps every word
    p0 = FieldElem.momentum(0)
    for c in (-2, Fraction(3, 4), FE_M, p0 + FE_M, (p0 - FE_M).inv()):
        got = x.scale(c)
        assert set(got.terms) == set(x.terms)
        assert got == alg.mul(alg.scalar(c), x)
    assert alg.zero().scale(FE_M).is_zero()


def test_subtraction_is_addition_of_the_negation(alg):
    # __sub__ shares __add__'s body with a sign instead of negating a copy
    operands = _combine_operands(alg) + [alg.D(), -alg.D(), alg.D().scale(FE_M)]
    for x, y in itertools.product(operands, repeat=2):
        assert x - y == x + (-y)
        assert (x - x).is_zero()


def test_bracket_edge_operands(alg):
    p0, p1 = FieldElem.momentum(0), FieldElem.momentum(1)
    word = alg.mul(alg.C(0), alg.J(1, 2))
    cases = [
        (alg.zero(), alg.zero()),
        (alg.zero(), word),
        # a pure scalar against a word: the empty word on the left
        (alg.scalar(p1 * (p0 + FE_M).inv()), word),
        (alg.scalar(Fraction(3, 2)), word),
        # a rational multiple of a word against a momentum
        (alg.C(1).scale(Fraction(-2, 3)), alg.momentum(1)),
        (word, word),
    ]
    for x, y in cases:
        for a, b in ((x, y), (y, x)):
            assert alg.bracket(a, b) == _commutator(alg, a, b), (a, b)
    assert alg.bracket(alg.zero(), word).is_zero()
    assert alg.bracket(alg.scalar(Fraction(3, 2)), word).is_zero()


def test_bracket_cold_and_warm_agree(alg):
    # warm: the module algebra after the tests above; cold: a fresh build
    warm = _roster(alg)
    cold_alg = build_algebra()
    cold = _roster(cold_alg)
    # (X[2], Xi[2]), (Tau, S[1]), (P[2], V[3]), (C[3], Sigma[1])
    for i, j in ((16, 19), (20, 17), (2, 21), (14, 18)):
        got = cold_alg.bracket(cold[i], cold[j])
        assert got == alg.bracket(warm[i], warm[j]), (i, j)
        assert got == _commutator(alg, warm[i], warm[j]), (i, j)


# ---------------------------------------------------------------------------
# moving a coefficient through a word, one monomial at a time
# ---------------------------------------------------------------------------

def _ref_deriv(rules, a, g):
    """(a, g) as {word: FieldElem}, from the momentum rules and the partial
    derivatives of g alone: sum over nu of dot(d_nu g, Y_nu), Y_nu = (a, P[nu])."""
    out = {}
    for nu in range(4):
        h = partial(g, nu)
        if h.is_zero():
            continue
        for w, c in rules[(a, nu)].items():
            _ref_add(out, w, h * c)
            if w:
                for z, e in _ref_deriv(rules, w[0], h).items():
                    _ref_add(out, z, e * c * Fraction(1, 2))
    return out


def _ref_add(out, w, c):
    s = out.get(w)
    out[w] = c if s is None else s + c


def _ref_product(ref, x, y):
    """x*y for term maps x, y: each coefficient of y moved through each
    word of x letter by letter (a*g = g*a + (a, g)), every word sorted by
    ref's schedule; ref memoizes nothing."""
    rules = ref.momentum_rules

    def moved(u, g):
        if not u:
            return {(): g}
        out = {}
        for z, h in [((u[-1],), g)] + list(_ref_deriv(rules, u[-1], g).items()):
            for z2, h2 in moved(u[:-1], h).items():
                _ref_add(out, z2 + z, h2)
        return out

    out = {}
    for u, f in x.items():
        for w, g in y.items():
            for z, h in moved(u, g).items():
                for zw, c in ref._sort_word(z + w).items():
                    _ref_add(out, zw, f * h * c)
    return NCExpr({w: c for w, c in out.items() if not c.is_zero()})


def _rand_coefficient(rng, kind, mass=True):
    """A coefficient of the given kind: "integral" (two to four monomials,
    with an M part or not), "monomial" (one, its integer coefficient 1 or
    not), "rational" or "quotient" (not integral). With mass False no
    monomial carries M."""
    def poly(n):
        g = field.FE_ZERO
        for _ in range(n):
            exps = tuple(rng.choice((0, 0, 1, 2)) for _ in range(4))
            g = g + FieldElem.monomial(exps, False) * rng.choice((1, -1, 2, -3, 5))
        return g

    if kind == "integral":
        g = poly(rng.randint(2, 4))
        if mass and rng.random() < 0.5:
            g = g + FE_M * poly(rng.randint(1, 2))
    elif kind == "monomial":
        exps = tuple(rng.choice((0, 1, 1, 2)) for _ in range(4))
        with_m = mass and rng.random() < 0.5
        g = FieldElem.monomial(exps, with_m) * rng.choice((1, 1, -2, 3))
    elif kind == "rational":
        g = FieldElem.const(Fraction(rng.choice((-3, 2, 5)), rng.choice((1, 2, 7))))
    else:
        den = FieldElem.momentum(rng.randrange(4)) + rng.choice((FE_ONE, FE_M))
        g = poly(rng.randint(1, 2)) * den.inv()
    return g


def _check_moved_coefficients(alg, ref, rng, kinds, mass, count):
    """f*u*g, f*u*g*w and brackets of f*u and g*w on alg against ref's
    memo-less products, for count draws of words u (one to four letters)
    and w (up to two), each sorted first, and coefficients f, g of the
    given kinds;
    both operands carry words and non-rational coefficients, so _shift's
    parts reach _raw_mul_terms and both loops of the bracket's _acc_moved.
    Every draw runs cold, then again on the warm engine. deriv(a, h), for
    every letter a and both drawn coefficients h, is checked against the
    commutator a*h - h*a of ref's products."""
    letters = [ref.letter(a) for a in range(N_LETTERS)]

    def commutators(h):
        s = ref.scalar(h)
        return [(ref.mul(x, s) - ref.mul(s, x)).terms for x in letters]

    draws = []
    for n in range(count):
        u = tuple(rng.randrange(N_LETTERS) for _ in range(rng.randint(1, 4)))
        w = tuple(rng.randrange(N_LETTERS) for _ in range(rng.randint(0, 2)))
        f = _rand_coefficient(rng, rng.choice(kinds), mass)
        g = _rand_coefficient(rng, kinds[n % len(kinds)], mass)
        x, y = (ref.normalize(NCExpr(t)).terms for t in ({u: f}, {w: g}))
        refs = (_ref_product(ref, x, {(): g}), _ref_product(ref, x, y),
                _ref_product(ref, y, x))
        derivs = ((f, commutators(f)), (g, commutators(g)))
        draws.append((u, w, f, g, refs, derivs))
    seen = set()
    for _ in range(2):
        for n, (u, w, f, g, (ug, xy, yx), derivs) in enumerate(draws):
            x = alg.normalize(NCExpr({u: f}))
            y = alg.normalize(NCExpr({w: g}))
            assert alg.combine(((1, "*", x, alg.scalar(g)),)) == ug, n
            assert alg.mul(x, y) == xy, n
            assert alg.combine(((1, "br", x, y), (2, "*", y, x))) == xy + yx, n
            assert alg.bracket(y, x) == yx - xy, n
            for h, want in derivs:
                for a in range(N_LETTERS):
                    assert alg.deriv(a, h) == want[a], (n, letter_name(a), h)
            seen.add("rational" if g.is_rational() else
                     "integral" if g.is_integral() else "quotient")
    assert not ref._shift_memo
    return seen


_COEFFICIENT_KINDS = ("integral", "monomial", "rational", "quotient")


def test_moved_coefficients_match_the_letter_by_letter_reference(
        random_schedule_algebra):
    alg = build_algebra()
    seen = _check_moved_coefficients(
        alg, random_schedule_algebra(33), random.Random(20261033),
        _COEFFICIENT_KINDS, True, 48)
    assert seen == {"integral", "rational", "quotient"}
    # both kinds of shift memo key were made: (word, g) and (word, exps, M)
    assert {len(key) for key in alg._shift_memo} == {2, 3}


def test_moved_coefficients_under_a_rule_that_keeps_the_word(
        random_schedule_algebra):
    # with D in D's own derivation on P[0], moving a monomial m through a
    # word u leaves more than m on u itself, which the conformal rules never
    # do: _acc_moved must then subtract m*u there rather than skip it. The
    # coefficients stay free of M and of denominators, whose derivations
    # would not terminate under this rule.
    rules = momentum_rules()
    rules[(LETTER_D, 0)] = {**rules[(LETTER_D, 0)], (LETTER_D,): FE_ONE}
    alg = Algebra(letter_table(), rules)
    ref = random_schedule_algebra(34)
    ref.momentum_rules = rules
    kinds = ("integral", "monomial", "rational")
    seen = _check_moved_coefficients(alg, ref, random.Random(20261034),
                                     kinds, False, 30)
    assert seen == {"integral", "rational"}


def test_shift_memo_does_not_grow_with_fresh_coefficients():
    # fresh integral coefficients over one monomial support move through
    # the same words: after the first batch, the memos have every
    # (word, monomial) pair, so a second batch of new ones adds nothing
    alg = build_algebra()
    rng = random.Random(20261034)
    support = [((0, 0, 0, 0), False), ((1, 0, 0, 0), False),
               ((0, 1, 0, 2), False), ((0, 0, 0, 0), True), ((0, 0, 1, 0), True)]
    words = [alg.D(), alg.C(0), alg.mul(alg.J(1, 2), alg.C(3)),
             alg.mul(alg.C(1), alg.C(2)) + alg.J(0, 3)]
    seen = set()

    def batch(n):
        for _ in range(n):
            g = field.FE_ZERO
            for exps, with_m in support:
                c = rng.randint(-10**6, 10**6) or 1
                g = g + FieldElem.monomial(exps, with_m) * c
            assert g.is_integral() and g not in seen
            seen.add(g)
            y = alg.scalar(g)
            for x in words:
                alg.mul(x, y)
                alg.bracket(x, y)
                alg.bracket(alg.mul(y, alg.C(1)), x)

    batch(12)
    sizes = memo_sizes(alg)
    batch(12)
    assert memo_sizes(alg) == sizes


# ---------------------------------------------------------------------------
# rewrite scheduling and fuel
# ---------------------------------------------------------------------------

def test_schedule_confluence(random_schedule_algebra):
    # the normal form must not depend on the order rewrite opportunities are
    # taken; a randomized, memo-less schedule has to land on the same answer
    def build_and_normalize(algebra):
        x = algebra.mul(
            algebra.mul(algebra.C(0), algebra.J(0, 1)),
            algebra.mul(algebra.D(), algebra.C(1)),
        )
        return algebra.normalize(x).pretty()

    reference = build_and_normalize(build_algebra())
    for seed in (11, 12, 13):
        shuffled = random_schedule_algebra(seed)
        assert build_and_normalize(shuffled) == reference
        # the schedule really was drawn, and nothing was memoized
        assert shuffled.rng.getstate() != random.Random(seed).getstate()
        assert not shuffled._word_memo and not shuffled._shift_memo
    # the engine method that the random schedule overrides still exists
    assert "_inversion" in vars(Algebra)


# the word of all eleven letters in reverse normal order
_REVERSED_WORD = "*".join(letter_name(c) for c in range(N_LETTERS - 1, -1, -1))


def _elaborated(text, obs, budget=DEFAULT_BUDGET):
    return elaborate(parse(text), {}, obs, budget)


def test_rewrite_budget_enforced():
    obs = Observables(build_algebra())
    with pytest.raises(RewriteBudgetExceeded):
        _elaborated(_REVERSED_WORD, obs, budget=10)
    # the refused product leaves no spent fuel behind: a one-swap word fits
    assert _elaborated("C[0]*D", obs, budget=10).pretty() == "D*C[0] + C[0]"


# two operands that both carry a word and a non-rational coefficient, so a
# bracket moves each coefficient through the other operand's word
_MOVING = ("P[1]/P[0]*C[0]", "P[2]/(P[0] + M)*J[0,1]")


def test_bracket_is_one_fuelled_operation():
    reference = Observables(build_algebra())
    x, y = (_elaborated(t, reference) for t in _MOVING)
    ast = Bin("br", *map(parse, _MOVING))
    want = reference.alg.bracket(x, y)
    cost = operation_cost(x, y)
    assert cost == 3
    # a bracket whose cost is exactly the budget fits, cold or warm
    for obs in (Observables(build_algebra()), reference):
        assert elaborate(ast, {}, obs, cost) == want
    # one less refuses it, however warm the memos are; building each
    # operand costs 2, so only the bracket is refused
    for obs in (Observables(build_algebra()), reference):
        with pytest.raises(
            RewriteBudgetExceeded,
            match=r"^operation cost 3 exceeds the rewrite budget of 2$",
        ):
            elaborate(ast, {}, obs, cost - 1)
        # nothing is left behind: the next product is judged on its own
        assert _elaborated("br(D, P[0])", obs, budget=cost - 1).pretty() == "P[0]"


def test_operation_cost():
    alg = build_algebra()
    w = NCExpr({tuple(range(N_LETTERS - 1, -1, -1)): FE_ONE})
    x = alg.C(0) + alg.D() + alg.one()
    # pairs: 3 * 1 + 1 * 2 + 3 * 11
    assert operation_cost(x, w) == operation_cost(w, x) == 38
    assert operation_cost(alg.zero(), w) == 0
    # D^k costs k + 1 as D^(k-1) * D, so D^1000 is the first power refused
    # at the smallest budget the command line accepts
    d999 = NCExpr({(0,) * 999: FE_ONE})
    assert operation_cost(d999, alg.D()) == 1001
    check_budget(1001, d999, alg.D())
    with pytest.raises(
        RewriteBudgetExceeded,
        match=r"^operation cost 1001 exceeds the rewrite budget of 1000$",
    ):
        check_budget(MIN_BUDGET, d999, alg.D())


def test_refused_operation_has_no_effect():
    x, y = map(parse, _MOVING)
    xw = Bin("*", x, parse("J[2,3]"))
    for op, left, right in (("*", y, xw), (".", xw, y), ("br", xw, y)):
        obs = Observables(build_algebra())
        ast = Bin(op, left, right)
        cost = operation_cost(*(elaborate(a, {}, obs) for a in (left, right)))
        before = memo_sizes(obs.alg)
        for _ in range(3):
            # the product itself is refused, not the building of an operand
            with pytest.raises(
                RewriteBudgetExceeded, match=rf"^operation cost {cost} exceeds"
            ):
                elaborate(ast, {}, obs, cost - 1)
            assert memo_sizes(obs.alg) == before, op
        # at its cost the product runs, and it does rewrite
        elaborate(ast, {}, obs, cost)
        assert memo_sizes(obs.alg) != before, op


def _record_ops(monkeypatch):
    """A list that gets (op, cost) for each product term of Algebra.combine,
    which every top-level mul, bracket and dot goes through: op is "m" for
    a product and "b" for a bracket, and a "." term is one of each."""
    seq = []
    combine = Algebra.combine
    ops = {"*": ("m",), "br": ("b",), ".": ("m", "b"), None: ()}

    def recorded(self, terms):
        def seen():
            for term in terms:
                _, op, x, y = term
                seq.extend((o, operation_cost(x, y)) for o in ops[op])
                yield term

        return combine(self, seen())

    monkeypatch.setattr(Algebra, "combine", recorded)
    return seq


# The peak operation_cost of what the engine builds on its own, on a fresh
# algebra: every symbol of the expression language at every legal index,
# then the builtin sweeps of each suite. Only outside input is checked
# against the rewrite budget, which is safe while these stay far below the
# smallest budget the command line accepts; an observable or a sweep that
# grows shows here.
_ENGINE_PEAKS = {
    "symbols": 11, "structure": 3, "conformal-factor": 62, "canonical": 96,
}


def test_engine_constructions_fit_min_budget(monkeypatch):
    seq = _record_ops(monkeypatch)
    alg = build_algebra()
    ctx = suites.Context(alg, Observables(alg))
    peaks = {}
    del seq[:]
    for name, (arity, build) in dsl._SYMBOLS.items():
        for vals in itertools.product(sorted(dsl._LEGAL[name]), repeat=arity):
            build(ctx.obs, list(vals))
    peaks["symbols"] = max(c for _, c in seq)
    for tag in suites.SUITE_TAGS:
        del seq[:]
        for ident in suites.catalog_by_suite(tag):
            if ident.builtin is not None:
                for asg in suites.identity_assignments(ident):
                    assert suites.evaluate_assignment(ident, asg, ctx) is None
        if seq:
            peaks[tag] = max(c for _, c in seq)
    assert peaks == _ENGINE_PEAKS
    assert max(peaks.values()) < MIN_BUDGET


# (count, total cost, peak) of the operations with a nonzero cost in a fresh
# suite run, the sizes of the memos after it by name,
# a ceiling on all its top-level operations, the number of FieldElem x
# FieldElem products it makes, and the number of rational functions it
# brings to lowest terms (field._lowest_terms): the sweeps share their
# generator brackets through Observables, so each is built once, and so are
# the conformal-factor
# sweeps' second-level brackets ((g, X[nu]), P[mu]) and ((g, P[mu]), X[nu]);
# the structure suite's Jacobi sweep builds one residual per unordered
# generator triple (Observables.jacobi);
# the localisation and canonical sums pin the order in which a sum binds its
# names; a bracket multiplies each operand coefficient into each summed
# output word once; dot, the Jacobi residual and the expression language's
# +/- chains are each one Algebra.combine; the engine's
# accumulators sum scaled products k*x*y of coefficients unreduced, so they
# form no field product of their own, reduce each output word once, and
# negate a lone subtracted coefficient without reducing it; an integral
# coefficient moves through a word one monomial at a time, so the shift
# memo holds a (word, monomial) entry for it, not a (word, coefficient) one;
# a lone operand kc*g in a part passes through _acc_times as the product
# (k*kc)*f*g, with no sum of its own; a letter's derivation on a monomial
# is read from its one-letter shift memo entry, with no memo of its own,
# and takes a monomial's derivatives in closed form, with no quotient rule; a
# sum(...) binder adds its terms in one combine, not one binary + each. A
# change to the operations a suite makes, to what is memoized, or to how
# often the engine multiplies or reduces coefficients shows here.
_FRESH_SUITES = {
    "structure": ((1140, 2812, 3), dict(word=131, shift=122, comm=117),
                  2160, 0, 32),
    "localisation": ((960, 7140, 65), dict(word=57, shift=263, comm=49),
                     1572, 240, 1982),
    "conformal-factor": ((725, 8836, 62), dict(word=117, shift=354, comm=77),
                         1157, 16, 3547),
    "canonical": ((629, 6238, 96), dict(word=56, shift=840, comm=42),
                  749, 150, 2934),
}


def _count_field_products(monkeypatch):
    """A one-item list that counts each FieldElem x FieldElem product."""
    count = [0]
    product = FieldElem.__mul__

    def counted(self, other):
        if isinstance(other, FieldElem):
            count[0] += 1
        return product(self, other)

    monkeypatch.setattr(FieldElem, "__mul__", counted)
    return count


def _count_lowest_terms(monkeypatch):
    """A one-item list that counts each call of field._lowest_terms."""
    count = [0]
    lowest_terms = field._lowest_terms

    def counted(*args):
        count[0] += 1
        return lowest_terms(*args)

    monkeypatch.setattr(field, "_lowest_terms", counted)
    return count


@pytest.mark.parametrize("tag", sorted(_FRESH_SUITES))
def test_fuel_of_fresh_sweeps_is_pinned(monkeypatch, tag):
    seq = _record_ops(monkeypatch)
    alg = build_algebra()
    ctx = suites.Context(alg, Observables(alg))
    del seq[:]
    products = _count_field_products(monkeypatch)
    reductions = _count_lowest_terms(monkeypatch)
    assert suites.run_suite(tag, ctx).passed
    costs = [c for _, c in seq if c]
    ceiling = _FRESH_SUITES[tag][2]
    # one assert over the whole row, so a failure shows every column that
    # moved; the ceiling column reads as pinned while len(seq) <= ceiling
    seen = (
        (len(costs), sum(costs), max(costs)),
        memo_sizes(alg),
        max(len(seq), ceiling),
        products[0],
        reductions[0],
    )
    assert seen == _FRESH_SUITES[tag]


def test_jacobi_sweep_builds_each_unordered_triple_once(monkeypatch):
    seq = _record_ops(monkeypatch)
    alg = build_algebra()
    ctx = suites.Context(alg, Observables(alg))

    def jacobi_keys():
        return sum(1 for key in ctx.obs._cache if key[0] == "jacobi")

    assert suites.run_suite("structure", ctx).passed
    # the multisets of three of the fifteen generators: C(17, 3)
    assert jacobi_keys() == 680
    # a second sweep reads all 3,375 residuals from the cache
    del seq[:]
    assert suites.run_identity(suites.find_identity("jacobi-sweep"), ctx).passed
    assert not [op for op, _ in seq if op == "b"]
    assert jacobi_keys() == 680


# ---------------------------------------------------------------------------
# confluence certificate
# ---------------------------------------------------------------------------
#
# Every rule rewrites a word of length two: b*a -> a*b + (b, a) for letters
# b > a; a*g -> g*a + (a, g) for a letter a and a coefficient generator g,
# one of P[0..3] and M; and, inside the coefficient field, h*g -> g*h and
# M*M -> Q. Rewriting terminates, so by Bergman's diamond lemma (Adv. Math.
# 29, 1978) normal forms are unique once every overlap of two left-hand sides
# is resolvable. _overlaps applies the two one-step reductions of each and
# normal-orders both results with the engine; they must be equal. The rule
# of a letter on a rational coefficient follows from the generators' rules
# by the Leibniz rule, which the letter-coefficient-coefficient overlaps pin.

_COEFF_GENS = (("P", 0), ("P", 1), ("P", 2), ("P", 3), ("M", None))


def _gen_name(g):
    return "M" if g[0] == "M" else f"P[{g[1]}]"


def _gen_value(g):
    return FE_M if g[0] == "M" else FieldElem.momentum(g[1])


def _swapped(alg, b, a, before=(), after=()):
    """before*b*a*after, b > a, with b*a rewritten once; words left unsorted."""
    terms = {before + (a, b) + after: FE_ONE}
    for mid, c in alg.letter_table[(b, a)].items():
        terms[before + mid + after] = FieldElem.const(c)
    return NCExpr(terms)


def _moved(alg, a, g):
    """a*g with the letter a moved once past the coefficient generator g."""
    if g[0] == "M":
        rule = alg.deriv(a, FE_M)
    else:
        rule = alg.momentum_rules[(a, g[1])]
    return NCExpr({(a,): _gen_value(g)}) + NCExpr(dict(rule))


def _overlaps(alg):
    """Yield (name, one side, other side) for every overlap ambiguity."""
    down = range(N_LETTERS - 1, -1, -1)
    for c, b, a in itertools.combinations(down, 3):
        yield (
            f"{letter_name(c)} {letter_name(b)} {letter_name(a)}",
            alg.normalize(_swapped(alg, c, b, after=(a,))),
            alg.normalize(_swapped(alg, b, a, before=(c,))),
        )
    for a, b in itertools.combinations(down, 2):
        for g in _COEFF_GENS:
            yield (
                f"{letter_name(a)} {letter_name(b)} {_gen_name(g)}",
                alg.mul(_swapped(alg, a, b), alg.scalar(_gen_value(g))),
                alg.mul(alg.letter(a), _moved(alg, b, g)),
            )
    # every ordered pair: g*h -> h*g (g > h) and M*M -> Q are the true
    # overlaps; the others pin the engine's Leibniz expansion of a*(g*h)
    for a in range(N_LETTERS):
        for g, h in itertools.product(_COEFF_GENS, repeat=2):
            yield (
                f"{letter_name(a)} {_gen_name(g)} {_gen_name(h)}",
                alg.mul(_moved(alg, a, g), alg.scalar(_gen_value(h))),
                alg.mul(alg.letter(a), alg.scalar(_gen_value(g) * _gen_value(h))),
            )
    for a in range(N_LETTERS):
        yield f"{letter_name(a)} M^2 = Q", mass_rule_residual(alg, a), alg.zero()


def test_overlaps_resolve():
    alg = build_algebra()
    names, unresolved = [], []
    for name, x, y in _overlaps(alg):
        names.append(name)
        if x != y:
            unresolved.append(name)
    assert len(names) == 165 + 275 + 275 + N_LETTERS
    assert len(set(names)) == len(names)
    assert not unresolved


def _perturbations():
    """Every nonzero letter-table entry (a > b) and momentum rule, doubled."""
    for (a, b), entry in letter_table().items():
        if a > b and entry:
            yield "letter", (a, b), {w: c * 2 for w, c in entry.items()}
    for key, rule in momentum_rules().items():
        if rule:
            yield "momentum", key, {w: c * 2 for w, c in rule.items()}


def test_overlaps_catch_each_perturbed_rule():
    # the certificate is not vacuous: doubling any single rule breaks it
    kinds = [kind for kind, _, _ in _perturbations()]
    assert (kinds.count("letter"), kinds.count("momentum")) == (28, 32)
    missed = []
    for kind, key, entry in _perturbations():
        letters, momenta = letter_table(), momentum_rules()
        (letters if kind == "letter" else momenta)[key] = entry
        bad = Algebra(letters, momenta)
        if all(x == y for _, x, y in _overlaps(bad)):
            missed.append((kind, key))
    assert not missed


# the builtins that read the engine: all but the three that read only the
# structure-constant table (tests/test_suites.py perturbs those)
_TABLE_ORACLES = ("pair_antisymmetry", "vector_field_oracle", "matrix_oracle")
_ENGINE_BUILTINS = {
    ident.builtin: ident
    for ident in suites.catalog()
    if ident.builtin and ident.builtin not in _TABLE_ORACLES
}


def _fails_somewhere(ident, ctx):
    """Whether some assignment of ident fails; stops at the first that does."""
    for asg in suites.identity_assignments(ident):
        try:
            if suites.evaluate_assignment(ident, asg, ctx) is not None:
                return True
        except ConfalgError:
            return True
    return False


@pytest.mark.parametrize("key", sorted(_ENGINE_BUILTINS))
def test_builtin_fails_on_a_perturbed_rule(key):
    # the sweep is not vacuous: some single doubled rule makes it fail
    assert len(_ENGINE_BUILTINS) == 7
    for kind, rule, entry in _perturbations():
        letters, momenta = letter_table(), momentum_rules()
        (letters if kind == "letter" else momenta)[rule] = entry
        bad = Algebra(letters, momenta)
        ctx = suites.Context(bad, Observables(bad))
        if _fails_somewhere(_ENGINE_BUILTINS[key], ctx):
            return
    pytest.fail(f"{key} passes on every perturbed algebra")


# a letter perturbation and momentum perturbations that break the Jacobi
# sweep, each with the number of triples whose residual is nonzero
_JACOBI_CROSS_CHECKS = {
    ("letter", (2, 1)): 72,
    ("letter", (7, 0)): 78,
    ("momentum", (0, 0)): 78,
    ("momentum", (7, 0)): 72,
}


def test_signed_jacobi_residuals_match_the_direct_form():
    # the sweep builds one residual per unordered triple and signs it by
    # parity; on engines that break the Jacobi identity, every ordered triple
    # still reads exactly what the direct three-bracket form gives
    ident = suites.find_identity("jacobi-sweep")
    assignments = suites.identity_assignments(ident)
    assert len(assignments) == 15**3
    checked = 0
    for kind, key, entry in _perturbations():
        if (kind, key) not in _JACOBI_CROSS_CHECKS:
            continue
        letters, momenta = letter_table(), momentum_rules()
        (letters if kind == "letter" else momenta)[key] = entry
        bad = Algebra(letters, momenta)
        ctx = suites.Context(bad, Observables(bad))
        direct = Observables(bad)
        nonzero = 0
        for asg in assignments:
            a, b, c = (suites._GEN_BY_NAME[asg[name]] for name in "abc")
            r = conformal.jacobi_residual(bad, a, b, c, direct.gen_bracket)
            want = None if r.is_zero() else r.pretty()
            assert suites._jacobi_residual(ctx, asg) == want, (kind, key, asg)
            nonzero += want is not None
        assert nonzero == _JACOBI_CROSS_CHECKS[kind, key], (kind, key)
        checked += 1
    assert checked == len(_JACOBI_CROSS_CHECKS)


# two perturbations that break expression records, each with the number of
# failing expression-record assignments and of failing builtin assignments
# among the shift-consistency and the two symmetrized-factor sweeps
_VERDICT_CROSS_CHECKS = {
    ("letter", (2, 1)): (69, 59),
    ("momentum", (3, 0)): (210, 154),
}


def _difference_text(lhs, rhs):
    r = lhs - rhs
    return None if r.is_zero() else r.pretty()


def test_equality_verdicts_match_the_difference():
    # residuals are decided by lhs == rhs on canonical normal forms, and
    # lhs - rhs is formed only as a failure's text; on broken engines both
    # must agree with the difference, verdict and text
    records = [ident for ident in suites.catalog() if ident.builtin is None]
    checked = 0
    for kind, key, entry in _perturbations():
        if (kind, key) not in _VERDICT_CROSS_CHECKS:
            continue
        letters, momenta = letter_table(), momentum_rules()
        (letters if kind == "letter" else momenta)[key] = entry
        bad = Algebra(letters, momenta)
        ctx = suites.Context(bad, Observables(bad))
        obs = ctx.obs
        failed = [0, 0]
        for ident in records:
            for asg in suites.identity_assignments(ident):
                want = _difference_text(
                    elaborate(ident.lhs_ast, asg, obs),
                    elaborate(ident.rhs_ast, asg, obs),
                )
                assert suites.evaluate_assignment(ident, asg, ctx) == want
                failed[0] += want is not None
        for g in GENERATORS:
            for mu, nu in itertools.product(range(4), repeat=2):
                asg = {"g": conformal.gen_name(g), "mu": mu, "nu": nu}
                want = _difference_text(
                    obs.shift_momentum(g, nu, mu), obs.momentum_shift(g, mu, nu)
                )
                assert suites._shift_consistency_residual(ctx, asg) == want
                failed[1] += want is not None
                for name in ("momentum_shift", "shift_momentum"):
                    b = getattr(obs, name)
                    want = _difference_text(
                        b(g, mu, nu) + b(g, nu, mu),
                        obs.lambda_at_X(g).scale(2 * conformal.eta(mu, nu)),
                    )
                    assert suites._cfactor_sym_residual(name, ctx, asg) == want
                    failed[1] += want is not None
        assert tuple(failed) == _VERDICT_CROSS_CHECKS[kind, key], (kind, key)
        checked += 1
    assert checked == len(_VERDICT_CROSS_CHECKS)


# ---------------------------------------------------------------------------
# rule table consistency
# ---------------------------------------------------------------------------

def test_mass_rules_consistent(alg):
    # commuting the mass symbol through any letter must agree with the
    # letter's action on the mass-squared invariant
    for code in range(N_LETTERS):
        assert mass_rule_residual(alg, code).is_zero(), letter_name(code)


def test_deriv_on_constant_denominators(alg):
    # no catalogue coefficient has a constant denominator other than 1, so
    # this is the only check of deriv's quotient rule on one: the derivation
    # is linear, so (a, g/k) is (a, g) scaled by 1/k
    P0, P1 = FieldElem.momentum(0), FieldElem.momentum(1)
    for g in (P0 * P1, P0 * FE_M, P1 * P1 + FE_M):
        for k in (Fraction(2), Fraction(-3, 5)):
            gk = g * (1 / k)
            _, d, dinv = gk.as_quotient()
            assert d.is_rational() and d != FE_ONE
            assert dinv == FieldElem.const(Fraction(1, d.a.num.leading()[1]))
            for a in range(N_LETTERS):
                want = {w: c * (1 / k) for w, c in alg.deriv(a, g).items()}
                assert alg.deriv(a, gk) == want, (letter_name(a), g, k)
    # a rational coefficient commutes with every letter, through the same
    # quotient rule: deriv keeps no early return of its own for it
    for k in (Fraction(1), Fraction(2), Fraction(-3, 5)):
        for a in range(N_LETTERS):
            assert alg.deriv(a, FieldElem.const(k)) == {}, (letter_name(a), k)


def test_letter_names_cover_all_codes():
    names = [letter_name(code) for code in range(N_LETTERS)]
    assert names[0] == "D"
    assert len(set(names)) == N_LETTERS
    assert names.count("D") == 1
    assert sum(1 for n in names if n.startswith("J[")) == 6
    assert sum(1 for n in names if n.startswith("C[")) == 4
