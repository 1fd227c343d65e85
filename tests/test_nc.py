"""Word rewriting over the extension field: canonical ordering, products,
brackets, derivations, and the rewrite budget."""

import random

import pytest

from confalg.conformal import build_algebra, mass_rule_residual
from confalg.errors import RewriteBudgetExceeded
from confalg.field import FE_ONE
from confalg.nc import N_LETTERS, NCExpr, letter_name


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
    n = alg.normalize(NCExpr(alg, {w: FE_ONE}))
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
# rewrite scheduling and fuel
# ---------------------------------------------------------------------------

def test_schedule_confluence():
    # the normal form must not depend on the order rewrite opportunities are
    # taken; a randomized schedule has to land on the same answer
    def build_and_normalize(algebra):
        x = algebra.mul(
            algebra.mul(algebra.C(0), algebra.J(0, 1)),
            algebra.mul(algebra.D(), algebra.C(1)),
        )
        return algebra.normalize(x).pretty()

    reference = build_and_normalize(build_algebra())
    for seed in (11, 12, 13):
        shuffled = build_algebra(schedule_rng=random.Random(seed))
        assert build_and_normalize(shuffled) == reference


def test_rewrite_budget_enforced():
    small = build_algebra(budget=10, check=False)
    w = tuple(range(N_LETTERS - 1, -1, -1))
    with pytest.raises(RewriteBudgetExceeded):
        small.normalize(NCExpr(small, {w: FE_ONE}))
    # the aborted operation leaves no spent fuel behind: a one-swap word fits
    small.normalize(NCExpr(small, {(1, 0): FE_ONE}))


# ---------------------------------------------------------------------------
# rule table consistency
# ---------------------------------------------------------------------------

def test_mass_rules_consistent(alg):
    # commuting the mass symbol through any letter must agree with the
    # letter's action on the mass-squared invariant
    for code in range(N_LETTERS):
        assert mass_rule_residual(alg, code).is_zero(), letter_name(code)


def test_letter_names_cover_all_codes():
    names = [letter_name(code) for code in range(N_LETTERS)]
    assert names[0] == "D"
    assert len(set(names)) == N_LETTERS
    assert names.count("D") == 1
    assert sum(1 for n in names if n.startswith("J[")) == 6
    assert sum(1 for n in names if n.startswith("C[")) == 4
