"""Every expression-language identity of the catalogue can fail.

Mutation analysis (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978): each record's two syntax trees are
walked, and every single-site change below makes one mutant. A record
passes when the verifier rejects at least one of its mutants, that is,
when some assignment leaves a nonzero residual. A mutant that only raises
a ConfalgError is not rejected by a residual, so it does not count.

The changes are br(a, b) to a*b, "+" and "-" into each other, dropping the
right operand of "+" or "-", a literal k to k+1, "*" and "." into each
other, and a symbol to another of the same arity (_SWAP). Swapping br's
operands is left out: on an identity br(a, b) = 0 it is an equivalent
mutant.
"""

import pytest

from confalg.dsl import Bin, Neg, Num, Pow, Sum, Sym, ast_pretty, elaborate
from confalg.errors import ConfalgError
from confalg.suites import catalog, get_context, identity_assignments

_SWAP = {
    "S": "X", "X": "S", "V": "X", "Sigma": "Xi", "Xi": "Sigma", "Tau": "D",
    "D": "Tau", "Stensor": "J", "J": "Stensor", "P": "C", "C": "P", "M": "D",
}

# the operator each binary operator is changed into
_FLIP = {"br": "*", "+": "-", "-": "+", "*": ".", ".": "*"}

_RECORDS = [ident for ident in catalog() if ident.builtin is None]


def _site_mutants(node):
    """The trees that change node itself, at its root."""
    if isinstance(node, Bin) and node.op in _FLIP:
        yield Bin(_FLIP[node.op], node.left, node.right)
    if isinstance(node, Bin) and node.op in ("+", "-"):
        yield node.left
    if isinstance(node, Num):
        yield Num(node.value + 1)
    if isinstance(node, Sym) and node.name in _SWAP:
        yield Sym(_SWAP[node.name], node.indices)


_NODES = (Bin, Neg, Num, Pow, Sum, Sym)


def _mutants(node):
    """Every tree that differs from node by one change at one site, root
    first, then each child's mutants in field order. A node's fields are
    its __slots__, which its constructor takes in that order."""
    yield from _site_mutants(node)
    fields = [getattr(node, name) for name in node.__slots__]
    for i, child in enumerate(fields):
        if isinstance(child, _NODES):
            for m in _mutants(child):
                yield type(node)(*fields[:i], m, *fields[i + 1:])


def _rejected(ident, lhs, rhs, obs):
    """Whether lhs = rhs leaves a nonzero residual at an assignment."""
    for asg in identity_assignments(ident):
        try:
            residual = elaborate(lhs, asg, obs) - elaborate(rhs, asg, obs)
        except ConfalgError:
            continue
        if not residual.is_zero():
            return True
    return False


def test_mutants_cover_every_site():
    tree = Bin(
        "+",
        Bin("br", Sym("X", (0,)), Sym("M", ())),
        Bin("*", Num(2), Sym("eta", (1, 1))),
    )
    got = [ast_pretty(m) for m in _mutants(tree)]
    assert got == [
        "br(X[0], M) - 2*eta[1,1]",
        "br(X[0], M)",
        "X[0]*M + 2*eta[1,1]",
        "br(S[0], M) + 2*eta[1,1]",
        "br(X[0], D) + 2*eta[1,1]",
        "br(X[0], M) + 2 . eta[1,1]",
        "br(X[0], M) + 3*eta[1,1]",
    ]


@pytest.mark.parametrize("ident", _RECORDS, ids=lambda ident: ident.id)
def test_identity_rejects_a_mutant(ident):
    obs = get_context().obs
    sides = [(m, ident.rhs_ast) for m in _mutants(ident.lhs_ast)]
    sides += [(ident.lhs_ast, m) for m in _mutants(ident.rhs_ast)]
    tried = []
    for lhs, rhs in sides:
        tried.append(f"{ast_pretty(lhs)} = {ast_pretty(rhs)}")
        if _rejected(ident, lhs, rhs, obs):
            return
    pytest.fail(f"{ident.id} holds under every mutant tried: {tried}")
