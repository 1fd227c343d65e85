"""Identity catalogue and suite runner: inventory, determinism, reporting."""

import hashlib
import json
from itertools import product

import pytest

from confalg import conformal
from confalg.dsl import index_range, parse
from confalg.errors import ConstructionFailure, UnknownIdentity
from confalg.suites import (
    SUITE_TAGS,
    Identity,
    SuiteReport,
    catalog,
    catalog_by_suite,
    find_identity,
    get_context,
    identity_assignments,
    report_json,
    report_text,
    report_to_dict,
    run_identity,
    run_suite,
)


@pytest.fixture(scope="module")
def ctx():
    return get_context()


# The catalogue is part of the package contract: every id below must exist,
# carry exactly this many assignments, and nothing else may appear.
_EXPECTED = {
    "structure": {
        "table-antisymmetry": 105,
        "jacobi-sweep": 3375,
        "vector-field-oracle": 105,
        "matrix-oracle": 105,
    },
    "localisation": {
        "position-definition": 4,
        "position-translation-shift": 16,
        "position-dilatation-shift": 4,
        "position-rotation-shift": 64,
        "dilatation-position-form": 1,
        "angular-momentum-split": 16,
        "spin-vector-definition": 4,
        "spin-tensor-definition": 16,
        "spin-transversality-tensor": 4,
        "spin-transversality-vector": 1,
        "spin-translation-invariance": 16,
        "spin-dilatation-invariance": 4,
        "spin-rotation-shift": 64,
        "spin-commutator": 16,
        "accel-momentum-shift": 16,
        "accel-mass-squared-shift": 4,
        "position-commutator": 16,
        "spin-position-commutator": 16,
    },
    "conformal-factor": {
        "mass-shift-factor": 15,
        "canonical-pair-invariance": 240,
        "shift-consistency": 240,
        "accel-shift-position-variation": 64,
        "factor-symmetrized-momentum": 240,
        "factor-symmetrized-position": 240,
    },
    "canonical": {
        "canonical-spin-definition": 3,
        "spin-square": 1,
        "canonical-spin-inverse-time": 1,
        "canonical-spin-inverse-spatial": 3,
        "canonical-spin-momentum-invariance": 12,
        "canonical-spin-mass-invariance": 3,
        "canonical-spin-algebra": 9,
        "canonical-position-definition": 3,
        "canonical-position-commutators": 9,
        "canonical-position-spin": 9,
        "canonical-pairs": 9,
        "canonical-position-mass-invariance": 3,
        "rotation-reconstruction": 9,
        "boost-reconstruction": 3,
        "energy-mass-momentum": 1,
        "dilatation-decomposition": 1,
        "proper-time-mass-pair": 1,
        "proper-time-position": 3,
        "proper-time-momentum": 3,
        "proper-time-spin": 3,
        "position-canonical-spatial": 3,
        "position-canonical-time": 1,
        "canonical-derivatives": 24,
        "velocity-momentum": 4,
        "momentum-velocity": 4,
        "mass-momentum-invariance": 4,
        "inertia": 4,
    },
}

_EXPECTED_TOTALS = {
    "structure": 3690,
    "localisation": 282,
    "conformal-factor": 1039,
    "canonical": 133,
}


def test_suite_tags_fixed():
    assert SUITE_TAGS == ("structure", "localisation", "conformal-factor", "canonical")
    assert set(_EXPECTED) == set(SUITE_TAGS)


def test_catalog_inventory():
    all_ids = [i.id for i in catalog()]
    assert len(all_ids) == len(set(all_ids)), "duplicate identity id"
    for tag in SUITE_TAGS:
        idents = catalog_by_suite(tag)
        got = {i.id: len(identity_assignments(i)) for i in idents}
        assert got == _EXPECTED[tag], tag
        assert sum(got.values()) == _EXPECTED_TOTALS[tag]
        assert all(i.tag == tag for i in idents)


def test_catalog_records_are_complete():
    for ident in catalog():
        assert ident.statement
        assert ident.describe
        if ident.builtin is None:
            # the statement's two sides must agree with the stored trees
            lhs, rhs = ident.statement.split(" = ")
            assert parse(lhs) == ident.lhs_ast
            assert parse(rhs) == ident.rhs_ast
        else:
            assert ident.lhs_ast is None and ident.rhs_ast is None


def test_free_variables_generate_assignments():
    for ident in catalog():
        if ident.builtin is not None:
            continue
        expect = 1
        for name in ident.free:
            expect *= len(index_range(name))
        asgs = identity_assignments(ident)
        assert len(asgs) == expect, ident.id
        combos = {tuple(a[n] for n in ident.free) for a in asgs}
        assert combos == set(
            product(*(index_range(n) for n in ident.free))
        ), ident.id


# sha256 of every identity's assignments in the order they run; the order
# fixes the engine's operation sequence and which memo entries are warm
_ASSIGNMENT_ORDER_SHA256 = (
    "8792eeec7729bbf38e28b029ae696c0f6d99e5af81159b972d9c485427bd302f"
)


def test_assignment_order_is_pinned():
    listed = [[i.id, identity_assignments(i)] for i in catalog()]
    digest = hashlib.sha256(json.dumps(listed).encode()).hexdigest()
    assert digest == _ASSIGNMENT_ORDER_SHA256


def test_find_identity(ctx):
    it = find_identity("jacobi-sweep")
    assert it.id == "jacobi-sweep" and it.tag == "structure"
    with pytest.raises(UnknownIdentity):
        find_identity("no-such-identity")


def test_run_single_identity(ctx):
    res = run_identity("position-definition", ctx)
    assert res.passed
    assert res.assignments == 4
    assert res.millis >= 0


def test_run_identity_single_assignment(ctx):
    ident = find_identity("position-definition")
    res = run_identity(ident, ctx, assignment={"mu": 2})
    assert res.passed and res.assignments == 1
    with pytest.raises(ConstructionFailure):
        run_identity(ident, ctx, assignment={"mu": 9})


def test_structure_suite_passes_and_is_deterministic(ctx):
    rep1 = run_suite("structure", ctx)
    rep2 = run_suite("structure", ctx)
    assert rep1.passed
    assert report_json(rep1) == report_json(rep2)


def test_unknown_suite_rejected(ctx):
    with pytest.raises(UnknownIdentity):
        run_suite("spectroscopy", ctx)


def test_report_serialization_shape(ctx):
    rep = run_suite("structure", ctx)
    d = report_to_dict(rep)
    assert d["suite"] == "structure"
    assert d["pass"] is True
    assert [r["id"] for r in d["identities"]] == sorted(_EXPECTED["structure"])
    for r in d["identities"]:
        assert r["failures"] == []
        assert r["millis"] == 0  # wall time never leaks into the JSON
    parsed = json.loads(report_json(rep))
    assert parsed == d
    txt = report_text(rep)
    assert "suite structure: pass" in txt
    assert txt.count("ok  ") == len(_EXPECTED["structure"])


def test_failing_identity_is_reported_not_hidden(ctx):
    # a deliberately false statement must surface as a failure with the
    # offending assignment and a nonzero residual, never as a crash
    bogus = Identity(
        id="bogus-check",
        tag="structure",
        describe="deliberately false",
        statement="D = M",
        free=(),
        lhs_ast=parse("D"),
        rhs_ast=parse("M"),
    )
    res = run_identity(bogus, ctx)
    assert not res.passed
    assert len(res.failures) == 1
    asg, residual = res.failures[0]
    assert asg == {}
    assert residual != "0"
    txt = report_text(SuiteReport(suite="structure", results=[res]))
    assert "FAIL bogus-check" in txt
    assert "suite structure: FAIL" in txt


@pytest.mark.parametrize(
    "key", ["pair_antisymmetry", "vector_field_oracle", "matrix_oracle"]
)
def test_table_oracle_fails_on_a_doubled_entry(ctx, monkeypatch, key):
    # (P[0], C[0]) is read straight off the table, not through its mirror
    # (C[0], P[0]), so doubling it breaks antisymmetry and both oracles
    table = conformal.table_bracket
    doubled = (conformal.gen_P(0), conformal.gen_C(0))

    def bracket(a, b):
        out = table(a, b)
        return {g: 2 * c for g, c in out.items()} if (a, b) == doubled else out

    monkeypatch.setattr(conformal, "table_bracket", bracket)
    (ident,) = [i for i in catalog() if i.builtin == key]
    assert not run_identity(ident, ctx).passed
