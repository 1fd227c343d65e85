"""Shared fixtures."""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import confalg
from confalg.conformal import letter_table, momentum_rules
from confalg.field import Q_POLY, FieldElem, RationalFunction
from confalg.nc import Algebra
from confalg.poly import Polynomial

# the directory that holds the imported confalg package, so a child process
# imports the same source tree as this one, installed or not
_PACKAGE_ROOT = str(Path(confalg.__file__).resolve().parents[1])


@pytest.fixture
def run_cli():
    """Spawn the command line in a child of this interpreter.

    ``run_cli(*argv)`` runs ``sys.executable -m confalg.cli *argv`` and
    returns the ``CompletedProcess`` with text stdout and stderr. The
    child inherits this environment, with the package root prepended to
    ``PYTHONPATH``; no ``confalg`` script on PATH is needed. ``launcher``
    replaces the ``-m confalg.cli`` interpreter arguments, ``env`` is a
    mapping merged over the inherited environment, and ``stdout`` (a file
    descriptor) replaces the captured standard output.
    """
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, base_env.get("PYTHONPATH")) if p
    )

    def run(*argv, launcher=("-m", "confalg.cli"), env=None, timeout=600,
            stdout=subprocess.PIPE):
        return subprocess.run(
            (sys.executable, *launcher, *argv),
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
            env={**base_env, **(env or {})},
        )

    return run


def memo_sizes(alg):
    """{name: entries} for every memo of the Algebra alg, read from its
    ``*_memo`` attributes by name: "shift" for ``_shift_memo``."""
    return {
        name.removeprefix("_").removesuffix("_memo"): len(memo)
        for name, memo in vars(alg).items()
        if name.endswith("_memo")
    }


def rewrite_memo_sizes(alg):
    """memo_sizes(alg) without the sum memo, which is keyed by coefficient
    values and term lists: its size depends on how the sums are grouped,
    not only on the rewriting done."""
    sizes = memo_sizes(alg)
    del sizes["sum"]
    return sizes


def perfbench_workloads():
    """perfbench/workloads.py, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Forgetful(dict):
    """A memo that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


class RandomScheduleAlgebra(Algebra):
    """The engine with its rewrite schedule drawn from ``rng``.

    Each letter swap takes a random inversion of its word, and nothing is
    memoized, so every rewrite is scheduled afresh. The rules are those of
    ``build_algebra``.
    """

    def __init__(self, rng):
        super().__init__(letter_table(), momentum_rules())
        self.rng = rng
        for name in list(vars(self)):
            if name.endswith("_memo"):
                setattr(self, name, _Forgetful())

    def _inversion(self, w):
        inversions = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        return self.rng.choice(inversions) if inversions else None


@pytest.fixture
def random_schedule_algebra():
    """``build(seed)`` gives a RandomScheduleAlgebra."""

    def build(seed):
        return RandomScheduleAlgebra(random.Random(seed))

    return build


def _rf_partial(x, v):
    """d/dP[v] of the RationalFunction x by the quotient rule,
    (N/D)' = (N' - (N/D)*D') / D. The 1/D is built on D's factor list, so
    D is not factored again."""
    dn = RationalFunction.from_poly(x.num.derivative(v))
    if x._fac == (1, {}):  # an integer polynomial
        return dn
    dd = RationalFunction.from_poly(x.den.derivative(v))
    dinv = RationalFunction(Polynomial.one(), x.den, _fac=x._fac)
    return (dn - x * dd) * dinv


#: d/dP[v] M = M * d/dP[v] Q / (2Q), from M^2 = Q
_DM_OVER_M = tuple(
    RationalFunction(Q_POLY.derivative(v), Q_POLY * 2) for v in range(4)
)


def partial(g, v):
    """d/dP[v] of the FieldElem g = a + b*M, a' + (b' + b * d/dP[v] M / M)*M,
    by the quotient rule on each part: the reference for the closed form
    of field.monomial_partial."""
    b = _rf_partial(g.b, v) + g.b * _DM_OVER_M[v]
    return FieldElem(_rf_partial(g.a, v), b)
