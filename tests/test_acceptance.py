"""Acceptance gate.

One test per acceptance criterion, so a verbose run prints one pass/fail
line for each. Every comparison is exact: residuals must normalize to the
zero element, never to something merely small. The suite wall-clock bounds
are asserted, not just observed.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from confalg.conformal import build_algebra, mass_rule_residual
from confalg.field import FE_ONE, FieldElem, RationalFunction
from confalg.nc import N_LETTERS
from confalg.poly import Polynomial
from confalg.suites import get_context, report_json, run_suite

_BOUNDS = {
    "structure": 30.0,
    "localisation": 60.0,
    "conformal-factor": 120.0,
    "canonical": 120.0,
}

_TOTALS = {
    "structure": 3690,
    "localisation": 282,
    "conformal-factor": 1039,
    "canonical": 133,
}


def _run_bounded(tag):
    ctx = get_context()
    t0 = time.perf_counter()
    rep = run_suite(tag, ctx)
    elapsed = time.perf_counter() - t0
    for r in rep.results:
        assert r.passed, f"{tag}/{r.id}: {r.failures[:3]}"
    assert sum(r.assignments for r in rep.results) == _TOTALS[tag]
    assert elapsed < _BOUNDS[tag], f"{tag} took {elapsed:.1f}s"
    return rep


def test_structure_suite_exact_and_fast():
    rep = _run_bounded("structure")
    counts = {r.id: r.assignments for r in rep.results}
    assert counts == {
        "jacobi-sweep": 3375,
        "table-antisymmetry": 105,
        "vector-field-oracle": 105,
        "matrix-oracle": 105,
    }


def test_localisation_suite_exact_and_fast():
    _run_bounded("localisation")


def test_conformal_factor_suite_exact_and_fast():
    _run_bounded("conformal-factor")


def test_canonical_suite_exact_and_fast():
    _run_bounded("canonical")


# ---------------------------------------------------------------------------
# engine property battery (criterion 5): at least 1000 random cases per law
# ---------------------------------------------------------------------------

_P0 = Polynomial.var(0)
_P1 = Polynomial.var(1)
_P2 = Polynomial.var(2)
_P3 = Polynomial.var(3)
_DEN_ATOMS = (_P0, _P1, _P2, _P3, _P0 + _P1, _P1 + _P2, _P0 - _P3)


def _rand_poly(rng):
    out = Polynomial.zero()
    for _ in range(rng.randint(1, 3)):
        term = Polynomial.one() * Fraction(rng.randint(-4, 4))
        for v in range(4):
            for _ in range(rng.randint(0, 1)):
                term = term * Polynomial.var(v)
        out = out + term
    return out


def _rand_den(rng):
    d = Polynomial.one() * Fraction(rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        d = d * _DEN_ATOMS[rng.randrange(len(_DEN_ATOMS))]
    return d


def _rand_fe(rng):
    return FieldElem(
        RationalFunction(_rand_poly(rng), _rand_den(rng)),
        RationalFunction(_rand_poly(rng), _rand_den(rng)),
    )


def _expr_pool(alg):
    return [
        alg.D(), alg.J(0, 1), alg.J(1, 3), alg.J(2, 3), alg.C(0), alg.C(2),
        alg.momentum(1), alg.momentum(3), alg.mass(),
    ]


def _rand_expr(alg, pool, rng, depth=2):
    if depth == 0 or rng.random() < 0.35:
        e = pool[rng.randrange(len(pool))]
        if rng.random() < 0.3:
            e = e.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return e
    if rng.random() < 0.55:
        return alg.mul(
            _rand_expr(alg, pool, rng, depth - 1),
            _rand_expr(alg, pool, rng, depth - 1),
        )
    return _rand_expr(alg, pool, rng, depth - 1) + _rand_expr(
        alg, pool, rng, depth - 1
    )


def test_engine_property_battery(random_schedule_algebra):
    failures = []

    # bracket antisymmetry, 1000 random expression pairs
    alg = build_algebra()
    pool = _expr_pool(alg)
    rng = random.Random(20260910)
    for k in range(1000):
        a = _rand_expr(alg, pool, rng)
        b = _rand_expr(alg, pool, rng)
        if not (alg.bracket(a, b) + alg.bracket(b, a)).is_zero():
            failures.append(f"antisymmetry case {k}")
            break

    # Leibniz rule, 1000 random triples
    rng = random.Random(20260911)
    for k in range(1000):
        a = _rand_expr(alg, pool, rng)
        b = pool[rng.randrange(len(pool))]
        c = pool[rng.randrange(len(pool))]
        lhs = alg.bracket(a, alg.mul(b, c))
        rhs = alg.mul(alg.bracket(a, b), c) + alg.mul(b, alg.bracket(a, c))
        if not (lhs - rhs).is_zero():
            failures.append(f"leibniz case {k}")
            break

    # normalization confluence: 100 random memo-less rule schedules, 10
    # random expressions each, every schedule must map the expression to the
    # same normal form the default schedule produces
    def confluence_exprs(algebra):
        rng_c = random.Random(20260912)
        pool_c = _expr_pool(algebra)
        return [_rand_expr(algebra, pool_c, rng_c, depth=3) for _ in range(10)]

    refs = [e.pretty() for e in confluence_exprs(alg)]
    sched_rng = random.Random(20260915)
    for _ in range(100):
        seed = sched_rng.randrange(10**9)
        a2 = random_schedule_algebra(seed)
        got = [e.pretty() for e in confluence_exprs(a2)]
        if got != refs:
            failures.append(f"confluence schedule {seed}")
            break

    # coefficient-field axioms, 1000 random cases each
    rng = random.Random(20260913)
    for k in range(1000):
        x = _rand_fe(rng)
        y = _rand_fe(rng)
        z = _rand_fe(rng)
        if (x + y) + z != x + (y + z) or x * y != y * x:
            failures.append(f"field add/mul case {k}")
            break
        if x * (y + z) != x * y + x * z:
            failures.append(f"field distributivity case {k}")
            break
    rng = random.Random(20260914)
    checked = 0
    while checked < 1000:
        x = _rand_fe(rng)
        if x.is_zero():
            continue
        if x * x.inv() != FE_ONE:
            failures.append(f"field inverse case {checked}")
            break
        checked += 1

    # quadratic relation: every letter's derived mass rule (a, M) must agree
    # with (a, Q) through the engine's own products, as M^2 = Q
    for code in range(N_LETTERS):
        if not mass_rule_residual(alg, code).is_zero():
            failures.append(f"mass rule letter {code}")

    assert not failures, failures


# ---------------------------------------------------------------------------
# determinism (criterion 6)
# ---------------------------------------------------------------------------

#: sha256 of `confalg run --suite all --format json`; two processes that agree
#: with each other could still both carry a changed normal form
REPORT_SHA256 = "95c00e247c4a483c6e67a4ccccd462eb793eb3220b8b51932090d0617943c3c9"


def test_reports_byte_identical_across_processes(run_cli):
    def run(hash_seed):
        return run_cli(
            "run", "--suite", "all", "--format", "json",
            env={"PYTHONHASHSEED": hash_seed},
            timeout=590,
        )

    a = run("1")
    b = run("2")
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    assert a.stdout == b.stdout
    assert a.stdout.lstrip().startswith("{")
    assert hashlib.sha256(a.stdout.encode()).hexdigest() == REPORT_SHA256
