"""The fifteen-generator bracket table, its two independent oracles, and the
metric and orientation conventions everything else leans on."""

import itertools
import random
from fractions import Fraction

import pytest

from confalg.conformal import (
    GENERATORS,
    build_algebra,
    classical_residual,
    eps4,
    eta,
    gen_C,
    gen_D,
    gen_J,
    gen_name,
    gen_P,
    jacobi_residual,
    matrix_rep,
    matrix_residual,
    table_bracket,
)
from confalg.observables import Observables


@pytest.fixture(scope="module")
def alg():
    return build_algebra()


# ---------------------------------------------------------------------------
# conventions
# ---------------------------------------------------------------------------

def test_metric_is_mostly_minus():
    assert eta(0, 0) == 1
    for i in (1, 2, 3):
        assert eta(i, i) == -1
    for i, j in itertools.combinations(range(4), 2):
        assert eta(i, j) == 0
        assert eta(j, i) == 0


def test_epsilon_is_alternating_with_unit_base():
    assert eps4(0, 1, 2, 3) == 1
    for perm in itertools.permutations(range(4)):
        sign = 1
        for a, b in itertools.combinations(range(4), 2):
            if perm[a] > perm[b]:
                sign = -sign
        assert eps4(*perm) == sign
    assert eps4(0, 0, 1, 2) == 0
    assert eps4(1, 3, 3, 0) == 0


def test_generator_roster():
    names = [gen_name(g) for g in GENERATORS]
    assert len(names) == 15
    assert len(set(names)) == 15
    assert names.count("D") == 1
    assert sum(1 for n in names if n.startswith("P[")) == 4
    assert sum(1 for n in names if n.startswith("J[")) == 6
    assert sum(1 for n in names if n.startswith("C[")) == 4


# ---------------------------------------------------------------------------
# the table itself
# ---------------------------------------------------------------------------

def test_table_spot_values():
    assert table_bracket(gen_D(), gen_P(0)) == {gen_P(0): 1}
    assert table_bracket(gen_D(), gen_C(2)) == {gen_C(2): -1}
    assert table_bracket(gen_D(), gen_J(0, 1)) == {}
    assert table_bracket(gen_J(0, 1), gen_J(0, 2)) == {gen_J(1, 2): -1}
    assert table_bracket(gen_J(0, 1), gen_P(1)) == {gen_P(0): -1}
    assert table_bracket(gen_P(1), gen_C(1)) == {gen_D(): 2}
    assert table_bracket(gen_P(0), gen_C(1)) == {gen_J(0, 1): -2}
    assert table_bracket(gen_P(0), gen_P(3)) == {}
    assert table_bracket(gen_C(0), gen_C(1)) == {}


def test_table_coefficients_are_rational():
    for a, b in itertools.combinations(GENERATORS, 2):
        for g, c in table_bracket(a, b).items():
            assert g in GENERATORS
            assert type(c) is int
            assert c != 0


def test_integer_constants_stay_int():
    # the structure constants are integers, and so is every word
    # coefficient the engine derives from them
    from confalg.suites import Context, run_suite

    alg = build_algebra()
    assert run_suite("structure", Context(alg=alg, obs=Observables(alg))).passed
    assert alg._word_memo and alg._comm_memo
    for table in (alg.letter_table, alg._word_memo, alg._comm_memo):
        for entry in table.values():
            assert all(type(c) is int for c in entry.values()), entry
    assert all(type(eta(mu, nu)) is int for mu in range(4) for nu in range(4))


def test_table_antisymmetry_every_pair():
    for a, b in itertools.product(GENERATORS, GENERATORS):
        ab = table_bracket(a, b)
        ba = table_bracket(b, a)
        assert set(ab) == set(ba)
        for g, c in ab.items():
            assert ba[g] == -c
    for a in GENERATORS:
        assert table_bracket(a, a) == {}


def test_table_jacobi_spot_triples(alg):
    triples = [
        (gen_P(0), gen_C(0), gen_D()),
        (gen_P(1), gen_C(2), gen_J(1, 2)),
        (gen_J(0, 1), gen_J(1, 2), gen_J(0, 2)),
        (gen_D(), gen_P(3), gen_C(3)),
        (gen_J(2, 3), gen_C(2), gen_P(3)),
        (gen_P(2), gen_P(0), gen_C(2)),
    ]
    pair = Observables(alg).gen_bracket
    for a, b, c in triples:
        assert jacobi_residual(alg, a, b, c, pair).is_zero(), (
            gen_name(a),
            gen_name(b),
            gen_name(c),
        )


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def test_vector_field_oracle_every_pair():
    # first-order differential operators on the four coordinates realize the
    # same table; the commutator of the realizations must match the table
    # bracket pair by pair
    for a, b in itertools.combinations(GENERATORS, 2):
        res = classical_residual(a, b)
        assert len(res) == 4
        assert all(p.is_zero() for p in res), (gen_name(a), gen_name(b))


def test_matrix_oracle_every_pair():
    for a, b in itertools.combinations(GENERATORS, 2):
        res = matrix_residual(a, b)
        assert all(c == 0 for row in res for c in row), (gen_name(a), gen_name(b))


def test_matrix_oracle_catches_a_wrong_table(monkeypatch):
    # an extra 1/2 on one structure constant must show, exactly, in the
    # residual of that pair and in the suite's failure text
    from confalg import conformal, suites

    table = conformal.table_bracket
    bad = (gen_D(), gen_P(0))

    def wrong_table(a, b):
        out = table(a, b)
        if (a, b) == bad:
            out[gen_P(0)] += Fraction(1, 2)
        return out

    monkeypatch.setattr(conformal, "table_bracket", wrong_table)
    res = matrix_residual(*bad)
    entries = {c for row in res for c in row if c}
    assert entries == {Fraction(1, 2), Fraction(-1, 2)}
    assert all(type(c) is Fraction for row in res for c in row if c)
    assert not any(c for row in matrix_residual(gen_D(), gen_P(1)) for c in row)
    text = suites._matrix_oracle_residual(None, {"a": "D", "b": "P[0]"})
    assert "1/2" in text
    assert suites._matrix_oracle_residual(None, {"a": "D", "b": "P[1]"}) is None


def test_matrix_rep_is_six_dimensional():
    assert len(GENERATORS) == 15
    for g in GENERATORS:
        m = matrix_rep(g)
        assert len(m) == 6
        assert all(len(row) == 6 for row in m)
        assert any(c != 0 for row in m for c in row), gen_name(g)
        assert sum(m[i][i] for i in range(6)) == 0, gen_name(g)
    # the matrix-oracle identity sweeps only the pairs a < b
    for a in GENERATORS:
        for b in GENERATORS:
            r = matrix_residual(a, b)
            assert not any(c for row in r for c in row), (gen_name(a), gen_name(b))


def test_engine_brackets_match_table(alg):
    # the rewriting engine's commutators must reproduce the abstract table on
    # a random sample of generator pairs
    from confalg.conformal import gen_expr, table_expr

    rng = random.Random(20260904)
    gens = list(GENERATORS)
    for _ in range(25):
        a = gens[rng.randrange(len(gens))]
        b = gens[rng.randrange(len(gens))]
        got = alg.bracket(gen_expr(alg, a), gen_expr(alg, b))
        want = table_expr(alg, table_bracket(a, b))
        assert got == want, (gen_name(a), gen_name(b))
