"""Derived observables: localisation, spin, canonical variables, velocity.

Everything asserted here was computed by hand from the definitions or follows
from an antisymmetry argument; nothing is a recorded engine output.
"""

import itertools

import pytest

from confalg.conformal import GENERATORS, build_algebra, eta, gen_expr
from confalg.dsl import elaborate, parse
from confalg.field import FE_M, FieldElem
from confalg.nc import Algebra
from confalg.observables import Observables


@pytest.fixture(scope="module")
def alg():
    return build_algebra()


@pytest.fixture(scope="module")
def obs(alg):
    return Observables(alg)


# ---------------------------------------------------------------------------
# localisation observable
# ---------------------------------------------------------------------------

def test_momentum_localisation_pairs(alg, obs):
    # (P[mu], X[nu]) is minus the metric times the identity: the localisation
    # observable is conjugate to momentum with lower indices on both sides
    for mu in range(4):
        for nu in range(4):
            got = alg.bracket(alg.momentum(mu), obs.X(nu))
            if mu != nu:
                assert got.is_zero(), (mu, nu)
            else:
                want = alg.scalar(-1 if mu == 0 else 1)
                assert got == want, mu


def test_localisation_transforms_as_vector(alg, obs):
    assert alg.bracket(alg.J(0, 1), obs.X(0)) == obs.X(1).scale(-1)
    assert alg.bracket(alg.J(0, 1), obs.X(2)).is_zero()
    assert alg.bracket(alg.D(), obs.X(3)) == obs.X(3).scale(-1)


# ---------------------------------------------------------------------------
# spin
# ---------------------------------------------------------------------------

def test_ordering_gap_vanishes(obs):
    # the two orderings of the spin contraction differ by commutator terms
    # that the antisymmetric contraction kills, so the coefficient-first
    # order (the catalogue's spin-vector-definition is letter-first) must
    # give the same S for every component
    ast = parse(
        "sum(nu, rho, sig, an, ar, as : -1/2*eps[mu,an,ar,as]*eta[nu,an]"
        "*eta[rho,ar]*eta[sig,as]*(P[sig]/M)*J[nu,rho])"
    )
    for mu in range(4):
        assert elaborate(ast, {"mu": mu}, obs) == obs.S(mu), mu


def test_spin_orthogonal_to_momentum(alg, obs):
    # S^mu P_mu contracts an alternating tensor with a symmetric product of
    # two momentum coefficients, hence vanishes identically
    total = alg.zero()
    for mu in range(4):
        total = total + alg.mul(obs.S_upper(mu), alg.scalar(FieldElem.momentum(mu)))
    assert total.is_zero()


def test_spin_tensor_is_antisymmetric(obs):
    assert (obs.Stensor(0, 1) + obs.Stensor(1, 0)).is_zero()
    assert (obs.Stensor(1, 3) + obs.Stensor(3, 1)).is_zero()
    assert obs.Stensor(2, 2).is_zero()


def test_spatial_spin_closes_as_rotations(alg, obs):
    # (sigma_1, sigma_2) = sigma_3 and cyclic: the canonical spin components
    # generate rotations among themselves
    assert alg.bracket(obs.sigma(1), obs.sigma(2)) == obs.sigma(3)
    assert alg.bracket(obs.sigma(2), obs.sigma(3)) == obs.sigma(1)
    assert alg.bracket(obs.sigma(3), obs.sigma(1)) == obs.sigma(2)


def test_spin_commutes_with_momentum_and_mass(alg, obs):
    assert alg.bracket(obs.sigma(1), alg.mass()).is_zero()
    assert alg.bracket(obs.sigma(1), alg.momentum(2)).is_zero()
    assert alg.bracket(obs.sigma(3), alg.momentum(0)).is_zero()


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------

def test_velocity_is_momentum_over_mass(alg, obs):
    for mu in range(4):
        want = alg.scalar(FieldElem.momentum(mu) * FE_M.inv())
        assert obs.V(mu) == want, mu


# ---------------------------------------------------------------------------
# canonical derivatives
# ---------------------------------------------------------------------------

def test_canonical_partials_are_kronecker(alg, obs):
    minus_one = alg.scalar(-1)
    one = alg.scalar(1)
    for j in (1, 2, 3):
        # d/d xi^j = -(P[j], .)
        assert -alg.bracket(alg.momentum(j), obs.xi(j)) == minus_one, j
        assert obs.canonical_partial(alg.momentum(j), "P", j) == one, j
    assert alg.bracket(alg.momentum(2), obs.xi(1)).is_zero()
    assert obs.canonical_partial(alg.momentum(1), "P", 3).is_zero()
    assert obs.canonical_partial(obs.tau(), "tau") == one
    assert obs.canonical_partial(alg.mass(), "M") == one


def test_canonical_cross_partials_vanish(alg, obs):
    assert alg.bracket(alg.momentum(1), alg.momentum(1)).is_zero()
    assert obs.canonical_partial(obs.xi(2), "P", 2).is_zero()
    assert obs.canonical_partial(obs.tau(), "P", 1).is_zero()
    assert obs.canonical_partial(obs.xi(1), "tau").is_zero()
    assert obs.canonical_partial(alg.mass(), "tau").is_zero()


def test_canonical_partial_rejects_unknown_variable(alg, obs):
    with pytest.raises(ValueError):
        obs.canonical_partial(alg.mass(), "sigma", 1)


# ---------------------------------------------------------------------------
# conformal factors on X
# ---------------------------------------------------------------------------

def test_lambda_on_x_by_kind(alg, obs):
    assert obs.lambda_at_X(("D",)) == alg.scalar(-1)
    assert obs.lambda_at_X(("P", 0)).is_zero()
    assert obs.lambda_at_X(("J", 1, 2)).is_zero()
    assert obs.lambda_at_X(("C", 1)) == obs.X(1).scale(-2)


def test_generator_brackets_are_cached(alg, obs):
    # (D, P[mu]) = P[mu] and (D, C[mu]) = -C[mu]; a second read is the same
    # object
    for mu in range(4):
        assert obs.gen_bracket(("D",), ("P", mu)) == alg.momentum(mu)
        dc = obs.gen_bracket(("D",), ("C", mu))
        assert dc == -alg.C(mu)
        assert obs.gen_bracket(("D",), ("C", mu)) is dc


def test_shifts_of_x(alg, obs):
    # (P[nu], X[mu]) = -eta[mu,nu] and (D, X[mu]) = -X[mu]; the acceleration
    # shifts have no closed form, so they are checked against the bracket
    for mu in range(4):
        assert obs.shift(("D",), mu) == -obs.X(mu)
        for nu in range(4):
            assert obs.shift(("P", nu), mu) == alg.scalar(-eta(mu, nu))
            c = obs.shift(("C", mu), nu)
            assert c == alg.bracket(alg.C(mu), obs.X(nu))
            assert obs.shift(("C", mu), nu) is c


def test_second_level_shifts_match_brackets(monkeypatch):
    # ((g, X[nu]), P[mu]) and ((g, P[mu]), X[nu]) against the brackets they
    # cache, on a fresh algebra; a second read is the same object and runs
    # no bracket
    alg = build_algebra()
    obs = Observables(alg)
    grid = list(itertools.product(GENERATORS, range(4), range(4)))
    built = {}
    for g, mu, nu in grid:
        sp = obs.shift_momentum(g, nu, mu)
        ps = obs.momentum_shift(g, mu, nu)
        e, x, p = gen_expr(alg, g), obs.X(nu), alg.momentum(mu)
        assert sp == alg.bracket(alg.bracket(e, x), p), (g, mu, nu)
        assert ps == alg.bracket(alg.bracket(e, p), x), (g, mu, nu)
        built[g, mu, nu] = sp, ps
    calls = []
    bracket = Algebra.bracket

    def counted(self, x, y):
        calls.append((x, y))
        return bracket(self, x, y)

    monkeypatch.setattr(Algebra, "bracket", counted)
    for g, mu, nu in grid:
        sp, ps = built[g, mu, nu]
        assert obs.shift_momentum(g, nu, mu) is sp
        assert obs.momentum_shift(g, mu, nu) is ps
    assert not calls
