"""A letter's derivation on the coefficient field, and the centrality of the
quadratic Casimir.

The engine computes (a, g) for a letter a and a monomial g in closed form,
from the partial derivatives of g and the momentum rules alone (see
nc.Algebra._deriv_mono), and keeps a*g = g*a + (a, g) as the one-letter
entry of its moved-monomial memo. The reference here is the
factor-by-factor Leibniz loop it replaced, which needs each letter's mass
rule (a, M) as an input:
(D, M) = M and (J, M) = 0, as D scales Q = P.P and J keeps it, and
(C[mu], M) is the normal form of 2*M.X[mu].

The quadratic Casimir of so(4,2) commutes with every generator, and so with
every observable built from them (Mack & Salam, "Finite-component field
representations of the conformal group", Ann. Phys. 53:174, 1969). Its
vanishing brackets are no rule of the rewriting system: each bracket sends
a degree-2 word of all four generator kinds through the whole engine.
"""

import itertools
import random

import pytest

from confalg import suites
from confalg.conformal import (
    GENERATORS,
    build_algebra,
    gen_expr,
    gen_name,
    letter_table,
    momentum_rules,
)
from confalg.dsl import elaborate, parse
from confalg.field import FE_M, FE_ONE, FieldElem
from confalg.nc import LETTER_D, Algebra, NCExpr, _acc, letter_C, letter_J
from confalg.observables import Observables


def _add(out, w, c):
    out[w] = out[w] + c if w in out else c


class LeibnizAlgebra(Algebra):
    """The engine with the derivation it ran before the closed form.

    (a, f0*f1*...) is taken factor by factor, right to left: with rest the
    product of the factors after f, (a, f*rest) = (a, f)*rest + f*(a, rest),
    where (a, f)*rest moves rest through the words of f's rule. The mass
    rules are supplied; the C rules are built with this engine from its
    D and J rules alone, as no C letter meets a coefficient on the way.
    """

    def __init__(self):
        super().__init__(letter_table(), momentum_rules())
        self.mass_rules = {LETTER_D: {(): FE_M}}
        for mu, nu in itertools.combinations(range(4), 2):
            self.mass_rules[letter_J(mu, nu)] = {}
        obs = Observables(self)
        for mu in range(4):
            rule = self.dot(self.mass(), obs.X(mu)).scale(2)
            self.mass_rules[letter_C(mu)] = dict(rule.terms)

    def _deriv_mono(self, a, m, out):
        ((exps, _),) = (m.a.num.terms or m.b.num.terms).items()
        for w, c in self.leibniz(a, _factors(exps, m.a.is_zero())).items():
            _acc(out, w, c)

    def leibniz(self, a, factors):
        """(a, f0*f1*...) for a list of ("P", v) / ("M", 0) factors."""
        out = {}
        rest = FE_ONE
        for kind, v in reversed(factors):
            if kind == "P":
                f, rule = FieldElem.momentum(v), self.momentum_rules[(a, v)]
            else:
                f, rule = FE_M, self.mass_rules[a]
            step = {}
            for w, c in self.mul(NCExpr(rule), self.scalar(rest)).terms.items():
                _add(step, w, c)
            for w, c in out.items():
                _add(step, w, f * c)
            out = {w: c for w, c in step.items() if not c.is_zero()}
            rest = f * rest
        return out


def _one_letter_entries(alg):
    """{(a, exps, with_m): (m, a*m)} over the one-letter entries of alg's
    moved-monomial memo."""
    out = {}
    for key, ((_, m, moved),) in alg._shift_memo.items():
        if len(key) == 3 and len(key[0]) == 1:
            (a,), exps, with_m = key
            out[(a, exps, with_m)] = m, moved
    return out


def _factors(exps, with_m):
    factors = [("P", v) for v in range(4) for _ in range(exps[v])]
    return factors + [("M", 0)] * with_m


# ---------------------------------------------------------------------------
# the quadratic Casimir
# ---------------------------------------------------------------------------

C2 = (
    "sum(mu, nu, al, be: eta[mu,al]*eta[nu,be]*J[mu,nu]*J[al,be]) - 2*D*D"
    " + sum(mu, nu: eta[mu,nu]*(P[mu]*C[nu] + C[nu]*P[mu]))"
)
# D*D with the wrong weight: no longer central
C2_PERTURBED = C2.replace("- 2*D*D", "- 1*D*D")


def _operands(alg, obs):
    """name -> expression: the 15 generators and 20 observables."""
    out = {gen_name(g): gen_expr(alg, g) for g in GENERATORS}
    for mu in range(4):
        out[f"X[{mu}]"], out[f"S[{mu}]"], out[f"V[{mu}]"] = (
            obs.X(mu), obs.S(mu), obs.V(mu))
    for j in range(1, 4):
        out[f"Xi[{j}]"], out[f"Sigma[{j}]"] = obs.xi(j), obs.sigma(j)
    out["Tau"], out["M"] = obs.tau(), alg.mass()
    return out


@pytest.fixture(scope="module")
def casimir():
    """(algebra, {(casimir text, operand name): bracket}) on a fresh algebra."""
    alg = build_algebra()
    obs = Observables(alg)
    operands = _operands(alg, obs)
    brackets = {}
    for text in (C2, C2_PERTURBED):
        c2 = elaborate(parse(text), {}, obs)
        for name, x in operands.items():
            brackets[(text, name)] = alg.bracket(c2, x)
    return alg, brackets


def test_casimir_is_central(casimir):
    _, brackets = casimir
    names = [name for text, name in brackets if text == C2]
    assert len(names) == 35
    assert [n for n in names if not brackets[(C2, n)].is_zero()] == []


def test_perturbed_casimir_is_not_central(casimir):
    # D*D commutes with J and D but not with P or C
    _, brackets = casimir
    nonzero = [n for text, n in brackets
               if text == C2_PERTURBED and not brackets[(text, n)].is_zero()]
    assert {f"{k}[{mu}]" for k in "PC" for mu in range(4)} <= set(nonzero)
    assert not {"D", "J[0,1]", "J[2,3]"} & set(nonzero)


# ---------------------------------------------------------------------------
# the closed form against the Leibniz reference
# ---------------------------------------------------------------------------

def test_closed_form_matches_leibniz_reference(casimir):
    # every monomial derivation that the catalogue and the Casimir brackets
    # meet, against the reference in declared and in shuffled factor order
    catalogue = build_algebra()
    suites.run_all(suites.Context(catalogue, Observables(catalogue)))
    ref = LeibnizAlgebra()
    rng = random.Random(20261019)
    memos = [_one_letter_entries(alg) for alg in (catalogue, casimir[0])]
    checked = set()
    for memo in memos:
        for (a, exps, with_m), (m, moved) in memo.items():
            # a*m = m*a + (a, m), and no conformal rule puts a in (a, m)
            got = dict(moved)
            assert got.pop((a,)) == m, (a, exps, with_m)
            factors = _factors(exps, with_m)
            shuffled = rng.sample(factors, len(factors))
            assert got == ref.leibniz(a, factors), (a, exps, with_m)
            assert got == ref.leibniz(a, shuffled), (a, shuffled)
            checked.add((a, exps, with_m))
    # every letter, with and without M, and factors of every momentum; the
    # Casimir brackets meet monomials that the catalogue does not
    assert {a for a, _, _ in checked} == set(range(11))
    assert {m for _, _, m in checked} == {0, 1}
    assert all(any(e[v] for _, e, _ in checked) for v in range(4))
    assert len(checked) > len(memos[0])
