"""Workload inputs, their evaluation in a child process, and the gate.

Catalogue workloads run whole suites of the identity catalogue through
`confalg.suites`. The `random-laws` workload is generated here from a seed:
field axioms on random coefficient-field elements and operator laws written
as expression-language text. A seeded share of the laws is perturbed by an
added nonzero term, so the known verdict of every law is "zero" (an axiom)
or "nonzero" (perturbed) without asking the engine.

Generation is pure Python and imports nothing from confalg; the child
process receives only the generated inputs as JSON.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

CATALOG_WORKLOADS = {
    "catalog-builtins": ("structure", "conformal-factor"),
    "catalog-localisation": ("localisation",),
    "catalog-canonical": ("canonical",),
}
RANDOM_WORKLOAD = "random-laws"
WORKLOADS = tuple(CATALOG_WORKLOADS) + (RANDOM_WORKLOAD,)

FIELD_KINDS = ("field-assoc", "field-distrib", "field-inverse")

#: laws of each kind per pass; the mix is fixed so that seeds differ only in
#: the generated values, not in how much of each kind of work they ask for
LAWS_PER_KIND = {
    "field-assoc": 30,
    "field-distrib": 30,
    "field-inverse": 60,
    "op-jacobi": 36,
    "op-assoc": 36,
    "op-leibniz": 36,
    "op-antisym": 36,
    "op-dot": 36,
}
PERTURBED_SHARE = 0.25
LINEAR_FORMS = 32


# ---------------------------------------------------------------------------
# random-laws generation
# ---------------------------------------------------------------------------

def _nonzero(rng, top):
    return rng.choice([c for c in range(-top, top + 1) if c])


def _linear_pool(rng, n):
    """n distinct primitive linear forms in two of the four momenta plus a
    constant, normalized to a positive leading coefficient."""
    seen = set()
    out = []
    while len(out) < n:
        coeffs = [0, 0, 0, 0, _nonzero(rng, 2)]
        for v in rng.sample(range(4), 2):
            coeffs[v] = _nonzero(rng, 3)
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        sign = 1 if next(c for c in coeffs if c) > 0 else -1
        form = tuple(sign * c // g for c in coeffs)
        if form not in seen:
            seen.add(form)
            out.append(form)
    return out


def _form_poly(form):
    poly = {}
    for v in range(4):
        if form[v]:
            e = [0, 0, 0, 0]
            e[v] = 1
            poly[tuple(e)] = Fraction(form[v])
    if form[4]:
        poly[(0, 0, 0, 0)] = Fraction(form[4])
    return poly


def _poly_json(p):
    return [[list(e), str(c)] for e, c in sorted(p.items())]


def _momentum_terms(rng, k):
    """sum of k terms c*P[v] over k distinct momenta, nonzero c."""
    out = {}
    for v in rng.sample(range(4), k):
        e = [0, 0, 0, 0]
        e[v] = 1
        out[tuple(e)] = Fraction(_nonzero(rng, 4))
    return out


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _rand_fe(rng, forms):
    """(A + B*M)/(k*f*g): A two momentum terms, B one, k in 1..3, f and g
    linear forms.

    The shape is fixed; the seed picks the coefficients, the momenta and the
    linear forms, which the caller keeps distinct within one law.
    """
    den = {(0, 0, 0, 0): Fraction(rng.randint(1, 3))}
    for form in forms:
        den = _poly_mul(den, _form_poly(form))
    den = _poly_json(den)
    return {
        "a": {"num": _poly_json(_momentum_terms(rng, 2)), "den": den},
        "b": {"num": _poly_json(_momentum_terms(rng, 1)), "den": den},
    }


def _small_fe(rng):
    """A nonzero element c*P[v], used as a perturbation."""
    one = _poly_json({(0, 0, 0, 0): Fraction(1)})
    return {
        "a": {"num": _poly_json(_momentum_terms(rng, 1)), "den": one},
        "b": {"num": [], "den": one},
    }


_LETTERS = (
    ["D"]
    + [f"J[{a},{b}]" for a in range(4) for b in range(a + 1, 4)]
    + [f"C[{mu}]" for mu in range(4)]
)
_C_LETTERS = _LETTERS[-4:]
_DJ_LETTERS = _LETTERS[:-4]


def _coeff_text(rng):
    """A polynomial coefficient in the momenta: a constant plus c*P[v]."""
    c0, c1 = _nonzero(rng, 3), _nonzero(rng, 3)
    v = rng.randrange(4)
    sign = "-" if c1 < 0 else "+"
    return f"({c0} {sign} {abs(c1)}*P[{v}])"


def _operand_text(rng):
    """One C term and one D or J term, each with a polynomial coefficient."""
    return (
        f"{_coeff_text(rng)}*{rng.choice(_C_LETTERS)}"
        f" + {_coeff_text(rng)}*{rng.choice(_DJ_LETTERS)}"
    )


def _op_law_text(kind, a, b, c):
    a, b, c = f"({a})", f"({b})", f"({c})"
    if kind == "op-jacobi":
        return f"br({a}, br({b}, {c})) + br({b}, br({c}, {a})) + br({c}, br({a}, {b}))"
    if kind == "op-assoc":
        return f"({a}*{b})*{c} - {a}*({b}*{c})"
    if kind == "op-leibniz":
        return f"br({a}, {b}*{c}) - br({a}, {b})*{c} - {b}*br({a}, {c})"
    if kind == "op-antisym":
        return f"br({a}, {b}) + br({b}, {a})"
    if kind == "op-dot":
        return f"{a}.{b} - 1/2*({a}*{b} + {b}*{a})"
    raise ValueError(kind)


def _perturbation_text(rng):
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    den = rng.choice((1, 2, 3))
    return f"{num}/{den}*{_LETTERS[rng.randrange(len(_LETTERS))]}"


def generate_random_laws(seed):
    """(inputs, expected, properties) for one seed.

    inputs is what the child receives: a list of laws, each a kind and its
    operands. expected holds the known verdict of each law, in order.
    properties describes the inputs actually generated.
    """
    rng = random.Random(f"random-laws:{seed}")
    pool = _linear_pool(rng, LINEAR_FORMS)
    used_forms = set()
    kinds = [k for k, n in LAWS_PER_KIND.items() for _ in range(n)]
    rng.shuffle(kinds)
    laws, expected = [], []
    for kind in kinds:
        perturbed = rng.random() < PERTURBED_SHARE
        if kind in FIELD_KINDS:
            names = ("x",) if kind == "field-inverse" else ("x", "y", "z")
            forms = rng.sample(pool, 2 * len(names))
            used_forms.update(forms)
            law = {"kind": kind}
            for k, name in enumerate(names):
                law[name] = _rand_fe(rng, forms[2 * k:2 * k + 2])
            law["delta"] = _small_fe(rng) if perturbed else None
        else:
            text = _op_law_text(kind, *(_operand_text(rng) for _ in range(3)))
            if perturbed:
                text += " + " + _perturbation_text(rng)
            law = {"kind": kind, "text": text}
        laws.append(law)
        expected.append("nonzero" if perturbed else "zero")
    inputs = {"laws": laws}
    return inputs, expected, _properties(inputs, expected, used_forms)


def _properties(inputs, expected, used_forms):
    dens = set()
    mix = {}
    for law in inputs["laws"]:
        mix[law["kind"]] = mix.get(law["kind"], 0) + 1
        for key in ("x", "y", "z"):
            if key in law:
                dens.add(json.dumps(law[key]["a"]["den"]))
    return {
        "laws": len(expected),
        "kind_mix": dict(sorted(mix.items())),
        "perturbed_share": round(expected.count("nonzero") / len(expected), 4),
        "distinct_denominators": len(dens),
        "distinct_linear_factors": len(used_forms),
        "inputs_sha256": inputs_digest(inputs),
    }


def inputs_bytes(inputs):
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def inputs_digest(inputs):
    return hashlib.sha256(inputs_bytes(inputs)).hexdigest()


# ---------------------------------------------------------------------------
# evaluation (child side; confalg is importable there)
# ---------------------------------------------------------------------------

def run_catalog(tags, ctx):
    """Run each suite, serialize its report and summarize it for the gate."""
    from confalg import suites

    out = []
    for tag in tags:
        report = suites.run_suite(tag, ctx)
        text = suites.report_json(report)
        out.append({
            "suite": tag,
            "assignments": sum(r.assignments for r in report.results),
            "failures": sum(len(r.failures) for r in report.results),
            "failing_identities": [r.id for r in report.results if r.failures],
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        })
    return out


def _build_poly(terms):
    from confalg.poly import Polynomial

    return Polynomial({tuple(e): Fraction(c) for e, c in terms})


def _build_fe(data):
    from confalg.field import FieldElem, RationalFunction

    return FieldElem(
        RationalFunction(_build_poly(data["a"]["num"]), _build_poly(data["a"]["den"])),
        RationalFunction(_build_poly(data["b"]["num"]), _build_poly(data["b"]["den"])),
    )


def _field_residual(law):
    from confalg.field import FE_ONE

    x = _build_fe(law["x"])
    kind = law["kind"]
    if kind == "field-inverse":
        lhs, rhs = x * x.inv(), FE_ONE
    else:
        y, z = _build_fe(law["y"]), _build_fe(law["z"])
        if kind == "field-assoc":
            lhs, rhs = (x * y) * z, x * (y * z)
        else:
            lhs, rhs = x * (y + z), x * y + x * z
    if law["delta"] is not None:
        rhs = rhs + _build_fe(law["delta"])
    return lhs - rhs


def run_laws(laws, ctx):
    """The verdict of each law: "zero", "nonzero", or "error: ..."."""
    from confalg import dsl
    from confalg.errors import ConfalgError

    verdicts = []
    for law in laws:
        try:
            if law["kind"] in FIELD_KINDS:
                residual = _field_residual(law)
            else:
                residual = dsl.elaborate(dsl.parse(law["text"]), {}, ctx.obs)
        except ConfalgError as exc:
            verdicts.append(f"error: {exc}")
            continue
        verdicts.append("zero" if residual.is_zero() else "nonzero")
    return verdicts


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------

def check_catalog(summary, expected):
    """(attempted, failed, problems) for a catalogue run.

    An operation is one assignment. A failing assignment is failed; when a
    suite's assignment count or report digest differs from the recorded one,
    every assignment of that suite counts as failed.
    """
    attempted = failed = 0
    problems = []
    seen = {s["suite"]: s for s in summary}
    for tag, want in expected.items():
        got = seen.get(tag)
        if got is None:
            attempted += want["assignments"]
            failed += want["assignments"]
            problems.append(f"{tag}: suite missing from the run")
            continue
        n = got["assignments"]
        attempted += n
        bad = got["failures"]
        if bad:
            problems.append(f"{tag}: failing identities {got['failing_identities']}")
        if n != want["assignments"]:
            problems.append(f"{tag}: {n} assignments, expected {want['assignments']}")
            bad = max(n, 1)
        if got["digest"] != want["digest"]:
            problems.append(f"{tag}: report digest {got['digest']} differs")
            bad = max(n, 1)
        failed += bad
    for tag in seen.keys() - expected.keys():
        problems.append(f"{tag}: suite not expected in this workload")
        attempted += seen[tag]["assignments"]
        failed += seen[tag]["assignments"]
    return max(attempted, 1), failed, problems


def check_laws(verdicts, expected):
    """(attempted, failed, problems) for a random-laws run; one law is one operation."""
    problems = []
    failed = 0
    for k, want in enumerate(expected):
        got = verdicts[k] if k < len(verdicts) else "missing"
        if got != want:
            failed += 1
            if len(problems) < 10:
                problems.append(f"law {k}: verdict {got!r}, expected {want!r}")
    if len(verdicts) > len(expected):
        failed += len(verdicts) - len(expected)
        problems.append(f"{len(verdicts) - len(expected)} verdicts for laws never sent")
    return max(len(expected), 1), failed, problems
