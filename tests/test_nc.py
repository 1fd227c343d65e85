"""Word rewriting over the extension field: canonical ordering, products,
brackets, derivations, the rewrite budget, and the confluence certificate."""

import itertools
import random
from fractions import Fraction

import pytest

from confalg import dsl, suites
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
    MIN_BUDGET,
    Algebra,
    N_LETTERS,
    NCExpr,
    check_budget,
    letter_name,
    operation_cost,
)
from confalg.observables import Observables
from confalg.poly import Polynomial


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


def test_bracket_matches_products_on_random_pool(random_schedule_algebra):
    # the memo-less algebra runs the direct bracket without its commutator
    # memo; depth-3 trees have a heavy tail there (one 9 x 49-term pair
    # takes 9 s), so on it pairs of more than 40 term pairs are left out,
    # while the default algebra compares every draw (the five largest take
    # 5 s together)
    for algebra, count, limit in (
        (build_algebra(), 60, None),
        (random_schedule_algebra(5), 20, 40),
    ):
        rng = random.Random(20261018)
        pool = [
            algebra.D(), algebra.J(0, 1), algebra.J(1, 3), algebra.J(2, 3),
            algebra.C(0), algebra.C(2), algebra.momentum(1),
            algebra.momentum(3), algebra.mass(),
        ]
        compared = 0
        for k in range(count):
            x = _rand_tree(algebra, pool, rng)
            y = _rand_tree(algebra, pool, rng)
            if limit is not None and len(x.terms) * len(y.terms) > limit:
                continue
            assert algebra.bracket(x, y) == _commutator(algebra, x, y), k
            compared += 1
        assert compared >= count * 3 // 4
    assert not algebra._comm_memo


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


def _memo_sizes(alg):
    return tuple(
        len(m)
        for m in (alg._word_memo, alg._shift_memo, alg._mono_memo, alg._comm_memo)
    )


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
        before = _memo_sizes(obs.alg)
        for _ in range(3):
            # the product itself is refused, not the building of an operand
            with pytest.raises(
                RewriteBudgetExceeded, match=rf"^operation cost {cost} exceeds"
            ):
                elaborate(ast, {}, obs, cost - 1)
            assert _memo_sizes(obs.alg) == before, op
        # at its cost the product runs, and it does rewrite
        elaborate(ast, {}, obs, cost)
        assert _memo_sizes(obs.alg) != before, op


def _record_ops(monkeypatch):
    """A list that gets (op, cost) for each top-level mul and bracket."""
    seq = []
    for name in ("mul", "bracket"):
        op = getattr(Algebra, name)

        def recorded(self, *args, _op=op, _tag=name[0]):
            seq.append((_tag, operation_cost(*args)))
            return _op(self, *args)

        monkeypatch.setattr(Algebra, name, recorded)
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
# suite run, the sizes of the four memos after it (word, shift, mono, comm),
# and a ceiling on all its top-level operations: the sweeps share their
# generator brackets through Observables, so each is built once, and so are
# the conformal-factor sweeps' second-level brackets ((g, X[nu]), P[mu]) and
# ((g, P[mu]), X[nu]); the localisation and canonical sums pin the order in
# which a sum binds its names. A change to the operations a suite makes, or
# to what is memoized, shows here.
_FRESH_SUITES = {
    "structure": ((5625, 13875, 3), (133, 95, 122, 121), 10350),
    "localisation": ((960, 7140, 65), (61, 191, 134, 49), 1572),
    "conformal-factor": ((725, 8836, 62), (117, 315, 122, 77), 1157),
    "canonical": ((629, 6238, 96), (56, 364, 525, 42), 749),
}


@pytest.mark.parametrize("tag", sorted(_FRESH_SUITES))
def test_fuel_of_fresh_sweeps_is_pinned(monkeypatch, tag):
    seq = _record_ops(monkeypatch)
    alg = build_algebra()
    ctx = suites.Context(alg, Observables(alg))
    del seq[:]
    assert suites.run_suite(tag, ctx).passed
    costs = [c for _, c in seq if c]
    fuel, memos, ceiling = _FRESH_SUITES[tag]
    assert (len(costs), sum(costs), max(costs)) == fuel
    assert _memo_sizes(alg) == memos
    assert len(seq) <= ceiling


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
            _, _, d, dinv = gk.as_quotient()
            assert d.is_const() and d != Polynomial.one()
            assert dinv == FieldElem.const(Fraction(1, d.leading()[1]))
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
