"""Identity catalogue and suite runner.

Suite definitions live in plain-text files under catalog/. Each record is a
blank-line-separated block:

    identity <id>
    tag <suite tag>
    describe <one line of plain text>
    free <index variables checked over their full ranges>     (optional)
    sum <index variables reserved for sum() binders>          (optional)
    lhs <expression>                                          (dsl records)
    rhs <expression>
    statement <displayed form>                (builtin records; generated
                                               as "lhs = rhs" for dsl ones)
    builtin <sweep key>                                       (builtin records)

A dsl record is verified by normalizing lhs and rhs for every assignment
of its free variables (single-letter variables run over 1..3, longer names
over 0..3): normal forms are canonical, so it holds exactly when the two are
equal, and lhs - rhs is formed only as a failure's text. Builtin records quantify over the generator set itself, which
the expression language cannot do, and run registered sweeps instead.
"""

import json
import os
import time
from functools import cache, partial
from itertools import combinations, product

from . import conformal, dsl
from .conformal import GENERATORS, eta, gen_expr, gen_name
from .errors import ConfalgError, ConstructionFailure, UnknownIdentity
from .nc import DEFAULT_BUDGET
from .observables import Observables

__all__ = [
    "SUITE_TAGS", "Identity", "IdentityResult", "SuiteReport", "Context",
    "get_context", "load_catalog", "catalog_by_suite", "find_identity",
    "run_identity", "run_suite", "run_all", "report_to_dict", "report_text",
    "reports_to_dict", "report_json",
]

SUITE_TAGS = ("structure", "localisation", "conformal-factor", "canonical")

_CATALOG_FILES = (
    "structure.txt",
    "localisation.txt",
    "conformal_factor.txt",
    "canonical.txt",
)


# ---------------------------------------------------------------------------
# catalogue model and loader
# ---------------------------------------------------------------------------

class Identity:
    """One catalogue record: a dsl record has lhs_ast and rhs_ast, a
    builtin record the key of its sweep. Immutable by convention."""

    __slots__ = ("id", "tag", "describe", "statement", "free", "lhs_ast",
                 "rhs_ast", "builtin")

    def __init__(self, id, tag, describe, statement, free, lhs_ast=None,
                 rhs_ast=None, builtin=None):
        self.id = id
        self.tag = tag
        self.describe = describe
        self.statement = statement
        self.free = free
        self.lhs_ast = lhs_ast
        self.rhs_ast = rhs_ast
        self.builtin = builtin


def _collect_indices(ast, vars_out, binders_out):
    if isinstance(ast, dsl.Sym):
        vars_out.update(ix for ix in ast.indices if isinstance(ix, str))
    if isinstance(ast, dsl.Sum):
        binders_out.update(ast.names)
    for child in dsl.children(ast):
        _collect_indices(child, vars_out, binders_out)


def _parse_record(block, path, ids_seen):
    fields = {}
    for line in block:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in fields:
            raise ConstructionFailure(f"{path}: duplicate {key!r} line in record")
        fields[key] = rest
    unknown = set(fields) - {
        "identity", "tag", "describe", "free", "sum", "lhs", "rhs",
        "statement", "builtin",
    }
    if unknown:
        raise ConstructionFailure(f"{path}: unknown keys {sorted(unknown)}")
    for req in ("identity", "tag", "describe"):
        if not fields.get(req):
            raise ConstructionFailure(f"{path}: record is missing {req!r}")
    ident = fields["identity"]
    if ident in ids_seen:
        raise ConstructionFailure(f"{path}: duplicate identity id {ident!r}")
    ids_seen.add(ident)
    tag = fields["tag"]
    if tag not in SUITE_TAGS:
        raise ConstructionFailure(f"{path}: {ident}: unknown suite tag {tag!r}")
    free = tuple(fields.get("free", "").split())
    summed = tuple(fields.get("sum", "").split())
    names = list(free) + list(summed)
    if len(set(names)) != len(names):
        raise ConstructionFailure(
            f"{path}: {ident}: an index variable is declared twice"
        )
    if "builtin" in fields:
        if "lhs" in fields or "rhs" in fields or free or summed:
            raise ConstructionFailure(
                f"{path}: {ident}: a builtin record takes no expressions or indices"
            )
        if not fields.get("statement"):
            raise ConstructionFailure(f"{path}: {ident}: builtin needs a statement")
        key = fields["builtin"]
        if key not in _BUILTINS:
            raise ConstructionFailure(f"{path}: {ident}: unknown builtin {key!r}")
        return Identity(
            id=ident, tag=tag, describe=fields["describe"],
            statement=fields["statement"], free=(), builtin=key,
        )
    if "statement" in fields:
        raise ConstructionFailure(
            f"{path}: {ident}: the statement of an expression record is generated"
        )
    if "lhs" not in fields or "rhs" not in fields:
        raise ConstructionFailure(f"{path}: {ident}: needs both lhs and rhs")
    lhs_ast = dsl.parse(fields["lhs"])
    rhs_ast = dsl.parse(fields["rhs"])
    used, binders = set(), set()
    _collect_indices(lhs_ast, used, binders)
    _collect_indices(rhs_ast, used, binders)
    undeclared = (used | binders) - set(names)
    if undeclared:
        raise ConstructionFailure(
            f"{path}: {ident}: undeclared index variables {sorted(undeclared)}"
        )
    stray = binders - set(summed)
    if stray:
        raise ConstructionFailure(
            f"{path}: {ident}: sum binders {sorted(stray)} not on the sum line"
        )
    unused = set(names) - (used | binders)
    if unused:
        raise ConstructionFailure(
            f"{path}: {ident}: declared but unused variables {sorted(unused)}"
        )
    free_bound = set(free) & binders
    if free_bound:
        raise ConstructionFailure(
            f"{path}: {ident}: free variables {sorted(free_bound)} are sum-bound"
        )
    return Identity(
        id=ident, tag=tag, describe=fields["describe"],
        statement=f"{fields['lhs']} = {fields['rhs']}",
        free=free, lhs_ast=lhs_ast, rhs_ast=rhs_ast,
    )


def load_catalog():
    """All identities, in file order; validated on load."""
    out = []
    ids_seen = set()
    base = os.path.join(os.path.dirname(__file__), "catalog")
    for name in _CATALOG_FILES:
        with open(os.path.join(base, name), encoding="utf-8") as fh:
            text = fh.read()
        block = []
        for raw in text.splitlines() + [""]:
            line = raw.strip()
            if line.startswith("#"):
                continue
            if line:
                block.append(line)
                continue
            if block:
                out.append(_parse_record(block, name, ids_seen))
                block = []
    return tuple(out)


catalog = cache(load_catalog)


def catalog_by_suite(tag):
    return tuple(ident for ident in catalog() if ident.tag == tag)


def find_identity(ident_id):
    for ident in catalog():
        if ident.id == ident_id:
            return ident
    raise UnknownIdentity(f"no identity named {ident_id!r} in the catalogue")


# ---------------------------------------------------------------------------
# evaluation context
# ---------------------------------------------------------------------------

class Context:
    """An algebra, its observables, and the budget of dsl products in it."""

    __slots__ = ("alg", "obs", "budget")

    def __init__(self, alg, obs, budget=DEFAULT_BUDGET):
        self.alg = alg
        self.obs = obs
        self.budget = budget


@cache
def _engine():
    alg = conformal.build_algebra()
    return alg, Observables(alg)


def get_context(budget=DEFAULT_BUDGET):
    """The process's one algebra and observable cache, with budget."""
    return Context(*_engine(), budget)


# ---------------------------------------------------------------------------
# builtin sweeps
# ---------------------------------------------------------------------------

def _grid(names, ranges):
    """Every assignment of names over ranges, the last name varying fastest."""
    return [dict(zip(names, combo)) for combo in product(*ranges)]


_GEN_NAMES = tuple(gen_name(g) for g in GENERATORS)
_GEN_BY_NAME = dict(zip(_GEN_NAMES, GENERATORS))


def _gen_pairs():
    return [{"a": a, "b": b} for a, b in combinations(_GEN_NAMES, 2)]


def _antisym_residual(ctx, asg):
    a = _GEN_BY_NAME[asg["a"]]
    b = _GEN_BY_NAME[asg["b"]]
    total = dict(conformal.table_bracket(a, b))
    for g, c in conformal.table_bracket(b, a).items():
        total[g] = total.get(g, 0) + c
    total = {g: c for g, c in total.items() if c}
    if not total:
        return None
    return conformal.table_expr(ctx.alg, total).pretty()


def _jacobi_residual(ctx, asg):
    r = ctx.obs.jacobi(*(_GEN_BY_NAME[asg[name]] for name in "abc"))
    return None if r.is_zero() else r.pretty()


def _poly_names_x(poly):
    return poly.pretty(names=("x0", "x1", "x2", "x3"))


def _vf_oracle_residual(ctx, asg):
    r = conformal.classical_residual(_GEN_BY_NAME[asg["a"]], _GEN_BY_NAME[asg["b"]])
    bad = [f"component {mu}: {_poly_names_x(r[mu])}" for mu in range(4) if not r[mu].is_zero()]
    return "; ".join(bad) if bad else None


def _matrix_oracle_residual(ctx, asg):
    r = conformal.matrix_residual(_GEN_BY_NAME[asg["a"]], _GEN_BY_NAME[asg["b"]])
    bad = [f"[{i}][{j}] = {r[i][j]}" for i in range(6) for j in range(6) if r[i][j]]
    return "; ".join(bad) if bad else None


def _cfactor_mass_residual(ctx, asg):
    g = _GEN_BY_NAME[asg["g"]]
    alg, obs = ctx.alg, ctx.obs
    r = alg.bracket(gen_expr(alg, g), alg.mass()) + alg.dot(
        alg.mass(), obs.lambda_at_X(g)
    )
    return None if r.is_zero() else r.pretty()


def _pair_invariance_residual(ctx, asg):
    alg, obs = ctx.alg, ctx.obs
    inner = obs.shift(("P", asg["mu"]), asg["nu"])
    r = alg.bracket(gen_expr(alg, _GEN_BY_NAME[asg["g"]]), inner)
    return None if r.is_zero() else r.pretty()


def _shift_consistency_residual(ctx, asg):
    obs = ctx.obs
    g = _GEN_BY_NAME[asg["g"]]
    mu, nu = asg["mu"], asg["nu"]
    lhs, rhs = obs.shift_momentum(g, nu, mu), obs.momentum_shift(g, mu, nu)
    return None if lhs == rhs else (lhs - rhs).pretty()


def _cfactor_sym_residual(name, ctx, asg):
    """b(g, mu, nu) + b(g, nu, mu) - 2*eta[mu,nu]*lambda_g(X), b the bracket
    method called name, looked up on obs so that a wrapped method is called."""
    obs = ctx.obs
    g = _GEN_BY_NAME[asg["g"]]
    mu, nu = asg["mu"], asg["nu"]
    bracket = getattr(obs, name)
    lhs = bracket(g, mu, nu) + bracket(g, nu, mu)
    rhs = obs.lambda_at_X(g).scale(2 * eta(mu, nu))
    return None if lhs == rhs else (lhs - rhs).pretty()


def _canonical_partials_assignments():
    out = [{"check": f"dX[{mu}]/dtau"} for mu in range(4)]
    out += [
        {"check": f"d{v}[{i}]/dP[{j}]"}
        for v, i, j in product(("Xi", "P"), range(1, 4), range(1, 4))
    ]
    out.append({"check": "dM/dtau"})
    out.append({"check": "dM/dM"})
    return out


def _canonical_partials_residual(ctx, asg):
    alg, obs = ctx.alg, ctx.obs
    label = asg["check"]
    kind, _, wrt = label.partition("/")
    if kind.startswith("dX["):
        mu = int(kind[3])
        r = obs.canonical_partial(obs.X(mu), "tau") - obs.V(mu)
    elif kind.startswith("dXi["):
        i = int(kind[4])
        j = int(wrt[3])
        r = obs.canonical_partial(obs.xi(i), "P", j)
    elif kind.startswith("dP["):
        i = int(kind[3])
        j = int(wrt[3])
        want = alg.scalar(1 if i == j else 0)
        r = obs.canonical_partial(alg.momentum(i), "P", j) - want
    elif label == "dM/dtau":
        r = obs.canonical_partial(alg.mass(), "tau")
    else:  # dM/dM
        r = obs.canonical_partial(alg.mass(), "M") - alg.one()
    return None if r.is_zero() else r.pretty()


_gen_munu = partial(_grid, ("g", "mu", "nu"), (_GEN_NAMES, range(4), range(4)))

_BUILTINS = {
    "pair_antisymmetry": (_gen_pairs, _antisym_residual),
    "jacobi": (partial(_grid, ("a", "b", "c"), (_GEN_NAMES,) * 3), _jacobi_residual),
    "vector_field_oracle": (_gen_pairs, _vf_oracle_residual),
    "matrix_oracle": (_gen_pairs, _matrix_oracle_residual),
    "cfactor_mass": (partial(_grid, ("g",), (_GEN_NAMES,)), _cfactor_mass_residual),
    "pair_invariance": (_gen_munu, _pair_invariance_residual),
    "shift_consistency": (_gen_munu, _shift_consistency_residual),
    "cfactor_sym_momentum": (
        _gen_munu, partial(_cfactor_sym_residual, "momentum_shift"),
    ),
    "cfactor_sym_position": (
        _gen_munu, partial(_cfactor_sym_residual, "shift_momentum"),
    ),
    "canonical_partials": (
        _canonical_partials_assignments,
        _canonical_partials_residual,
    ),
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

class IdentityResult:
    """The verdict on one identity: failures lists (assignment dict,
    residual text) pairs, and millis the time its check took."""

    __slots__ = ("id", "statement", "assignments", "failures", "millis")

    def __init__(self, id, statement, assignments, failures, millis):
        self.id = id
        self.statement = statement
        self.assignments = assignments
        self.failures = failures
        self.millis = millis

    @property
    def passed(self):
        return not self.failures


class SuiteReport:
    """The results of one suite's identities, in id order."""

    __slots__ = ("suite", "results")

    def __init__(self, suite, results):
        self.suite = suite
        self.results = results

    @property
    def passed(self):
        return all(r.passed for r in self.results)


def identity_assignments(ident):
    """The ordered list of assignment dicts an identity is checked over."""
    if ident.builtin is not None:
        return _BUILTINS[ident.builtin][0]()
    return _grid(ident.free, map(dsl.index_range, ident.free))


def evaluate_assignment(ident, asg, ctx):
    """Residual text for one assignment, or None when it holds."""
    if ident.builtin is not None:
        return _BUILTINS[ident.builtin][1](ctx, asg)
    lhs = dsl.elaborate(ident.lhs_ast, asg, ctx.obs, ctx.budget)
    rhs = dsl.elaborate(ident.rhs_ast, asg, ctx.obs, ctx.budget)
    return None if lhs == rhs else (lhs - rhs).pretty()


def run_identity(ident, ctx=None, assignment=None):
    """Check one identity (by object or id) over all or one assignment."""
    if isinstance(ident, str):
        ident = find_identity(ident)
    if ctx is None:
        ctx = get_context()
    assignments = identity_assignments(ident)
    if assignment is not None:
        if assignment not in assignments:
            raise ConstructionFailure(
                f"{ident.id}: {assignment!r} is not one of its assignments"
            )
        assignments = [assignment]
    failures = []
    t0 = time.perf_counter()
    for asg in assignments:
        try:
            residual = evaluate_assignment(ident, asg, ctx)
        except ConfalgError as exc:
            residual = f"error: {exc}"
        if residual is not None:
            failures.append((asg, residual))
    millis = (time.perf_counter() - t0) * 1000.0
    return IdentityResult(
        id=ident.id,
        statement=ident.statement,
        assignments=len(assignments),
        failures=failures,
        millis=millis,
    )


def run_suite(tag, ctx=None):
    """Every identity of one suite; deterministic result order."""
    if tag not in SUITE_TAGS:
        raise UnknownIdentity(f"no suite named {tag!r}")
    if ctx is None:
        ctx = get_context()
    idents = sorted(catalog_by_suite(tag), key=lambda i: i.id)
    return SuiteReport(suite=tag, results=[run_identity(i, ctx) for i in idents])


def run_all(ctx=None):
    if ctx is None:
        ctx = get_context()
    return [run_suite(tag, ctx) for tag in SUITE_TAGS]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def report_to_dict(report):
    """JSON form; millis is pinned to 0 so reports are byte-reproducible."""
    return {
        "suite": report.suite,
        "identities": [
            {
                "id": r.id,
                "statement": r.statement,
                "assignments": r.assignments,
                "failures": [
                    {"assignment": asg, "residual": residual}
                    for asg, residual in r.failures
                ],
                "millis": 0,
            }
            for r in report.results
        ],
        "pass": report.passed,
    }


def reports_to_dict(reports):
    return {
        "suite": "all",
        "suites": [report_to_dict(rep) for rep in reports],
        "pass": all(rep.passed for rep in reports),
    }


def report_json(reports):
    """Serialize one report or a list of them; stable field order."""
    if isinstance(reports, SuiteReport):
        payload = report_to_dict(reports)
    else:
        payload = reports_to_dict(reports)
    return json.dumps(payload, indent=2)


def report_text(report):
    lines = [f"suite {report.suite}"]
    for r in report.results:
        mark = "ok  " if r.passed else "FAIL"
        lines.append(
            f"  {mark} {r.id}  [{r.assignments} assignment"
            f"{'s' if r.assignments != 1 else ''}, {r.millis:.1f} ms]"
        )
        for asg, residual in r.failures:
            where = ", ".join(f"{k}={v}" for k, v in asg.items()) or "-"
            lines.append(f"       at {where}: {residual}")
    lines.append(f"suite {report.suite}: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)
