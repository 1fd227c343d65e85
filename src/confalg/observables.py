"""Derived observables over the conformal algebra.

Everything here is a finite engine expression built from the letters and the
coefficient field:

* X[mu]   localisation observable, X[mu] = J[nu,mu].(P^nu/M^2) + D.(P[mu]/M^2)
* S[mu]   spin vector (lower index), from S^mu = -1/2 eps^{mu nu rho sig}
          J[nu,rho] P[sig]/M
* Stensor[mu,nu] = eps[mu,nu,rho,sig] S^rho P^sig / M
* Sigma[j], Xi[j], Tau   the canonical spin, position and time variables
* V[mu]   velocity, V[mu] = -(M, X[mu])
* (g, h), (g, X[nu]), ((g, X[nu]), P[mu]) and ((g, P[mu]), X[nu]) for
          generators g, h: the brackets the builtin sweeps share, built once
          each
* the Jacobi residual of three generators, built once per unordered triple
          (680 of them) and signed by the parity of the ordering asked for

Index convention: symbols carry lower indices; raising is an explicit metric
contraction and the metric is its own inverse. Spatial indices run 1..3.

The products in the spin definitions are written letter-first; the opposite
order differs by terms that cancel under the antisymmetric contraction, so it
gives the same S (the observables tests check this through the expression
language).
"""

from fractions import Fraction

# jacobi_residual is looked up on the module, where perfbench's tracer wraps it
from . import conformal
from .conformal import GENERATORS, eps4, eta, gen_expr
from .field import FE_M, FE_Q, FieldElem

_GEN_RANK = {g: i for i, g in enumerate(GENERATORS)}


def _mom_over_q(sig, sign=1):
    """P[sig]/M = P[sig]*M/M^2 as a coefficient, optionally signed."""
    return FieldElem.momentum(sig) * sign * FE_M.inv()


class Observables:
    """Lazy cache of the derived observables for one engine instance.

    leaves is the expression language's table of leaf operators; dsl
    fills it and defines its keys.
    """

    def __init__(self, alg):
        self.alg = alg
        self._cache = {}
        self.leaves = {}

    def _get(self, key, build):
        hit = self._cache.get(key)
        if hit is None:
            hit = build()
            self._cache[key] = hit
        return hit

    # ---- localisation ----

    def X(self, mu):
        """X[mu] = J[nu,mu].(P^nu/M^2) + D.(P[mu]/M^2)."""
        def build():
            alg, q_inv = self.alg, FE_Q.inv()
            total = alg.zero()
            for nu in range(4):
                if nu != mu:
                    coeff = FieldElem.momentum(nu) * eta(nu, nu) * q_inv
                    total = total + alg.dot(alg.J(nu, mu), alg.scalar(coeff))
            coeff = FieldElem.momentum(mu) * q_inv
            return total + alg.dot(alg.D(), alg.scalar(coeff))

        return self._get(("X", mu), build)

    # ---- spin ----

    def S_upper(self, mu):
        """S^mu, with each P/M coefficient multiplied from the right."""
        def build():
            alg = self.alg
            total = alg.zero()
            half = Fraction(1, 2)
            for nu in range(4):
                for rho in range(4):
                    for sig in range(4):
                        s = eps4(mu, nu, rho, sig)
                        if not s:
                            continue
                        s = s * eta(mu, mu) * eta(nu, nu) * eta(rho, rho) * eta(sig, sig)
                        j = alg.J(nu, rho)
                        p = alg.scalar(_mom_over_q(sig))
                        total = total + alg.mul(j, p).scale(-half * s)
            return total

        return self._get(("S^", mu), build)

    def S(self, mu):
        return self._get(("S", mu), lambda: self.S_upper(mu).scale(eta(mu, mu)))

    def Stensor(self, mu, nu):
        def build():
            alg = self.alg
            total = alg.zero()
            for rho in range(4):
                for sig in range(4):
                    s = eps4(mu, nu, rho, sig)
                    if not s:
                        continue
                    coeff = _mom_over_q(sig, eta(sig, sig) * s)
                    total = total + alg.mul(self.S_upper(rho), alg.scalar(coeff))
            return total

        return self._get(("St", mu, nu), build)

    # ---- canonical variables (spatial index 1..3) ----

    def sigma(self, j):
        def build():
            alg = self.alg
            p0_plus_m = FieldElem.momentum(0) + FE_M
            coeff = FieldElem.momentum(j) * p0_plus_m.inv()
            return self.S(j) - alg.mul(alg.scalar(coeff), self.S(0))

        return self._get(("sigma", j), build)

    def xi(self, j):
        def build():
            alg = self.alg
            p0 = FieldElem.momentum(0)
            p0_plus_m = p0 + FE_M
            first = alg.dot(alg.scalar(p0.inv()), alg.J(0, j))
            coeff = FE_M * (p0 * p0_plus_m).inv()
            return first - alg.mul(alg.scalar(coeff), self.Stensor(0, j))

        return self._get(("xi", j), build)

    def tau(self):
        def build():
            alg = self.alg
            a = alg.D()
            for j in range(1, 4):
                p_up = alg.scalar(FieldElem.momentum(j) * eta(j, j))
                a = a - alg.dot(p_up, self.xi(j))
            m_inv = alg.scalar(FE_M.inv())
            return alg.dot(a, m_inv)

        return self._get(("tau",), build)

    # ---- velocity ----

    def V(self, mu):
        def build():
            alg = self.alg
            return -alg.bracket(alg.mass(), self.X(mu))

        return self._get(("V", mu), build)

    # ---- generator brackets shared by the builtin sweeps ----

    def gen_bracket(self, g, h):
        """(g, h) for two generators."""
        alg = self.alg
        return self._get(
            ("br", g, h), lambda: alg.bracket(gen_expr(alg, g), gen_expr(alg, h))
        )

    def shift(self, g, nu):
        """(g, X[nu]) for a generator g: how g moves the position observable."""
        alg = self.alg
        return self._get(
            ("shift", g, nu), lambda: alg.bracket(gen_expr(alg, g), self.X(nu))
        )

    def shift_momentum(self, g, nu, mu):
        """((g, X[nu]), P[mu]): how the position shift of g varies with P[mu]."""
        alg = self.alg
        return self._get(
            ("shift_P", g, nu, mu),
            lambda: alg.bracket(self.shift(g, nu), alg.momentum(mu)),
        )

    def momentum_shift(self, g, mu, nu):
        """((g, P[mu]), X[nu]): how the momentum shift of g varies along X[nu]."""
        alg = self.alg
        return self._get(
            ("P_shift", g, mu, nu),
            lambda: alg.bracket(self.gen_bracket(g, ("P", mu)), self.X(nu)),
        )

    def jacobi(self, a, b, c):
        """conformal.jacobi_residual of three generators.

        The residual is minus the cyclic sum (a,(b,c)) + (b,(c,a)) +
        (c,(a,b)), which is alternating because the engine's bracket is
        antisymmetric by construction, perturbed rule tables included. So
        it is built once, on the triple sorted into GENERATORS order, and
        negated when the ordering asked for is an odd permutation of it
        (equal generators count as no inversion).
        """
        i, j, k = _GEN_RANK[a], _GEN_RANK[b], _GEN_RANK[c]
        triple = sorted((a, b, c), key=_GEN_RANK.__getitem__)
        r = self._get(
            ("jacobi", *triple),
            lambda: conformal.jacobi_residual(self.alg, *triple, self.gen_bracket),
        )
        # the parity of the number of inversions
        return -r if (i > j) ^ (i > k) ^ (j > k) else r

    # ---- conformal factors evaluated on the localisation observable ----

    def lambda_at_X(self, g):
        """lambda_g with the spacetime point replaced by X; an engine expression."""
        kind = g[0]
        if kind == "D":
            return self.alg.scalar(-1)
        if kind == "C":
            return self.X(g[1]).scale(-2)
        return self.alg.zero()

    # ---- canonical derivatives ----

    def canonical_partial(self, expr, wrt, index=None):
        """Derivative of an expression in the canonical variables.

        wrt is one of "P" (lower spatial index), "tau" or "M":

            d/d P[j]  =  (xi^j, .)
            d/d tau   =  -(M, .)
            d/d M     =  (tau, .)
        """
        alg = self.alg
        if wrt == "P":
            return alg.bracket(self.xi(index).scale(eta(index, index)), expr)
        if wrt == "tau":
            return -alg.bracket(alg.mass(), expr)
        if wrt == "M":
            return alg.bracket(self.tau(), expr)
        raise ValueError(f"unknown canonical variable {wrt!r}")
