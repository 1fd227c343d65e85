"""Expression language: grammar, printing, and elaboration into the engine."""

import gc
import hashlib
import random
import sys
from fractions import Fraction

import pytest
from conftest import perfbench_workloads, rewrite_memo_sizes

from confalg import dsl
from confalg.conformal import build_algebra
from confalg.dsl import (
    Bin,
    Neg,
    Num,
    Pow,
    Sum,
    Sym,
    SYMBOL_ARITY,
    ast_pretty,
    elaborate,
    index_range,
    parse,
)
from confalg.errors import (
    ArityError,
    ConfalgError,
    DivisionByZero,
    DslSyntaxError,
    IndexRangeError,
    NonCoefficientDivisor,
    RewriteBudgetExceeded,
    UnboundIndex,
    UnknownSymbol,
)
from confalg.field import FE_M, FieldElem
from confalg.nc import DEFAULT_BUDGET
from confalg.observables import Observables
from confalg.suites import (
    catalog,
    catalog_by_suite,
    get_context,
    identity_assignments,
    run_all,
)


@pytest.fixture(scope="module")
def alg():
    return build_algebra()


@pytest.fixture(scope="module")
def obs(alg):
    from confalg.observables import Observables

    return Observables(alg)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_shapes():
    assert parse("P[0]") == Sym("P", (0,))
    assert parse("J[1,3]") == Sym("J", (1, 3))
    assert parse("D") == Sym("D", ())
    assert parse("1/2") == Bin("/", Num(1), Num(2))
    assert type(parse("7").value) is int
    assert parse("D + P[0]*M") == Bin(
        "+", Sym("D", ()), Bin("*", Sym("P", (0,)), Sym("M", ()))
    )
    assert parse("-D^2") == Neg(Pow(Sym("D", ()), 2))
    assert parse("br(P[1], C[1])") == Bin(
        "br", Sym("P", (1,)), Sym("C", (1,))
    )
    assert parse("sum(i : Sigma[i])") == Sum(("i",), Sym("Sigma", ("i",)))
    assert parse("X[mu] . P[nu]") == Bin(
        ".", Sym("X", ("mu",)), Sym("P", ("nu",))
    )


def test_binary_node_rejects_an_unknown_operator():
    # a hand-built tree is checked where it is built, before it can be
    # elaborated or printed as some other operator
    with pytest.raises(ValueError, match=r"unknown binary operator '\^'"):
        Bin("^", Num(1), Num(2))


def test_parse_left_association_and_parens():
    D, M = Sym("D", ()), Sym("M", ())
    assert parse("D*M*D") == Bin("*", Bin("*", D, M), D)
    assert parse("D*(M*D)") == Bin("*", D, Bin("*", M, D))
    assert parse("D - M - D") == Bin("-", Bin("-", D, M), D)
    assert parse("(D^2)^3") == Pow(Pow(Sym("D", ()), 2), 3)


def test_parse_error_positions():
    with pytest.raises(DslSyntaxError) as e:
        parse("P[0] +")
    assert (e.value.line, e.value.col) == (1, 7)
    with pytest.raises(DslSyntaxError) as e:
        parse("D D")
    assert (e.value.line, e.value.col) == (1, 3)
    with pytest.raises(DslSyntaxError) as e:
        parse("(D")
    assert (e.value.line, e.value.col) == (1, 3)
    with pytest.raises(DslSyntaxError) as e:
        parse("D $")
    assert (e.value.line, e.value.col) == (1, 3)
    with pytest.raises(UnknownSymbol) as e:
        parse("D +\nQ[0]")
    assert "line 2" in str(e.value) and "column 1" in str(e.value)


def _error_at(src):
    """(type name, message) of the error that parse(src) raises."""
    with pytest.raises(ConfalgError) as e:
        parse(src)
    return type(e.value).__name__, str(e.value)


def test_tokenizer_position_rules():
    # every character counts one column, "\t" and "\r" included, and a
    # newline starts the next line at column 1
    assert _error_at("D +\t\r$") == (
        "DslSyntaxError", "unexpected character '$' (line 1, column 6)")
    assert _error_at("D\r\n+ \t$") == (
        "DslSyntaxError", "unexpected character '$' (line 2, column 4)")
    assert _error_at("D +\n\n\tQ[0]") == (
        "UnknownSymbol", "unknown symbol 'Q' (line 3, column 2)")
    assert _error_at("P[0] +\n") == (
        "DslSyntaxError", "expected an expression, found 'end of input' "
        "(line 2, column 1)")
    # a name starts with a letter (str.isalpha) or "_" and goes on with
    # letters, digits (str.isalnum) and "_"; an integer is ASCII digits
    assert _error_at("Pé") == (
        "UnknownSymbol", "unknown symbol 'Pé' (line 1, column 1)")
    assert _error_at("D + éP²_1") == (
        "UnknownSymbol", "unknown symbol 'éP²_1' (line 1, column 5)")
    assert _error_at("_x") == (
        "UnknownSymbol", "unknown symbol '_x' (line 1, column 1)")
    assert _error_at("2P") == (
        "DslSyntaxError", "unexpected trailing input 'P' (line 1, column 2)")
    # a digit that is no ASCII digit starts nothing
    assert _error_at("D*²") == (
        "DslSyntaxError", "unexpected character '²' (line 1, column 3)")
    assert _error_at("D +\n ½") == (
        "DslSyntaxError", "unexpected character '½' (line 2, column 2)")
    assert _error_at("P[٣]") == (
        "DslSyntaxError", "unexpected character '٣' (line 1, column 3)")
    assert _error_at("D\x0b") == (
        "DslSyntaxError", "unexpected character '\\x0b' (line 1, column 2)")


@pytest.mark.parametrize(
    "src, message, line, col",
    [
        ("J[0 1]", "expected ',' or ']' in index list", 1, 5),
        ("S[", "expected an index, found 'end of input'", 1, 3),
        ("P[0,", "expected an index, found 'end of input'", 1, 5),
        ("sum(i j : D)", "expected ',' or ':' in sum variable list", 1, 7),
        ("sum(i, : D)", "expected an index variable name, found ':'", 1, 8),
        ("sum(i", "expected ',' or ':' in sum variable list", 1, 6),
        ("sum(\n i j : D)", "expected ',' or ':' in sum variable list", 2, 4),
    ],
)
def test_list_parse_errors(src, message, line, col):
    # index lists and sum variable lists share one loop; each error names
    # the token where the list went wrong
    with pytest.raises(DslSyntaxError) as e:
        parse(src)
    assert str(e.value) == f"{message} (line {line}, column {col})"
    assert (e.value.line, e.value.col) == (line, col)


def test_parse_rejects_malformed_input():
    with pytest.raises(DslSyntaxError):
        parse("D^0")
    with pytest.raises(DslSyntaxError):
        parse("D^2^3")
    with pytest.raises(DslSyntaxError):
        parse("sum(P : D)")
    with pytest.raises(DslSyntaxError):
        parse("sum(i, i : D)")
    with pytest.raises(DslSyntaxError):
        parse("P[]")
    with pytest.raises(ArityError):
        parse("J[0]")
    with pytest.raises(ArityError):
        parse("D[1]")
    with pytest.raises(UnknownSymbol):
        parse("Spin[1]")


# int() refuses a decimal string longer than this many digits; 0 or an
# interpreter without the limit accepts any length
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(
    not _INT_DIGITS, reason="int() reads a literal of any length here"
)


@needs_int_limit
@pytest.mark.parametrize(
    "before, after",
    [("D + 7*", ""), ("D +\n P[", "]"), ("P[1]*D^", "")],
    ids=["numeral", "index", "exponent"],
)
def test_overlong_literal_is_a_syntax_error(before, after):
    # a literal that int() refuses is reported where it stands, like any
    # other malformed token, and not as the interpreter's ValueError
    digits = "1" * (_INT_DIGITS + 1)
    line = before.count("\n") + 1
    col = len(before) - before.rfind("\n")
    with pytest.raises(DslSyntaxError) as e:
        parse(before + digits + after)
    assert str(e.value) == (
        f"integer literal too long ({len(digits)} digits) "
        f"(line {line}, column {col})"
    )
    assert (e.value.line, e.value.col) == (line, col)
    # the longest literal int() reads still parses
    assert parse("7*" + "1" * _INT_DIGITS).right.value == int("1" * _INT_DIGITS)


def test_nodes_compare_and_hash_by_value():
    src = "sum(i : -X[i]^2 . br(P[i], 1/2*D)) - eta[0,0]"
    a, b = parse(src), parse(src)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, parse("D")}) == 2
    assert Sym("P", (0,)) != Sym("P", (1,))
    assert Bin("+", a.left, a.right) == parse(src.replace(" - ", " + "))
    # a node of another class is unequal even with equal fields
    assert Num(1) != Neg(1) and Num(1) != 1
    assert repr(parse("-X[i]")) == "Neg(arg=Sym(name='X', indices=('i',)))"


def test_index_variable_ranges():
    assert index_range("i") == (1, 2, 3)
    assert index_range("j") == (1, 2, 3)
    assert index_range("mu") == (0, 1, 2, 3)
    assert index_range("alpha") == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

def test_pretty_round_trip_fixed_corpus():
    # each entry is written as the printer spells it, so the printed text
    # is pinned as well as the round trip
    corpus = [
        "br(P[1], C[1])",
        "sum(i, mu : P[mu]*Sigma[i])",
        "-(D + M)^2",
        "(D + M)*(D - M)",
        "P[0]/(M*M)",
        "D . M . D",
        "D*(M*D)",
        "(D^2)^3",
        "sum(nu : eta[nu,nu]*X[nu] . P[nu])",
        "1/2*br(D, br(M, C[3]))",
        "D - (M - D) + -D",
        "-D^2/2 - -M",
        "X[mu] . (P[nu] . M)",
        "J[0,1]/(P[0] + M)^2",
        "sum(i : -Sigma[i])/3",
        "(-D)^2",
        "--D",
        "1/2*(D . M + M . D)",
    ]
    for src in corpus:
        t = parse(src)
        assert ast_pretty(t) == src
        assert parse(ast_pretty(t)) == t, src


_NAMES = sorted(SYMBOL_ARITY)
_VARS = ("i", "j", "mu", "nu")


def _rand_sym(rng):
    name = _NAMES[rng.randrange(len(_NAMES))]
    lo = 1 if name in ("Sigma", "Xi") else 0
    indices = []
    for _ in range(SYMBOL_ARITY[name]):
        if rng.random() < 0.3:
            indices.append(_VARS[rng.randrange(len(_VARS))])
        else:
            indices.append(rng.randint(lo, 3))
    return Sym(name, tuple(indices))


def _rand_ast(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Num(rng.randint(0, 9))
        return _rand_sym(rng)
    k = rng.randrange(9)
    binary = {0: "+", 1: "-", 3: "*", 4: ".", 5: "/", 7: "br"}
    if k in binary:
        return Bin(binary[k], _rand_ast(rng, depth - 1),
                   _rand_ast(rng, depth - 1))
    if k == 2:
        return Neg(_rand_ast(rng, depth - 1))
    if k == 6:
        return Pow(_rand_ast(rng, depth - 1), rng.randint(1, 3))
    count = rng.randint(1, 2)
    names = tuple(rng.sample(_VARS, count))
    return Sum(names, _rand_ast(rng, depth - 1))


def test_pretty_round_trip_random_asts():
    # the printer must emit source that parses back to the identical tree,
    # whatever the nesting; 250 random trees up to depth 4
    rng = random.Random(20260905)
    for _ in range(250):
        t = _rand_ast(rng, 4)
        assert parse(ast_pretty(t)) == t, ast_pretty(t)


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------

def test_elaborate_matches_direct_api(alg, obs):
    cases = [
        ("P[2]", alg.momentum(2)),
        ("J[0,3]", alg.J(0, 3)),
        ("M*D", alg.mul(alg.mass(), alg.D())),
        ("X[1] . P[0]", alg.dot(obs.X(1), alg.momentum(0))),
        ("br(D, C[2])", alg.bracket(alg.D(), alg.C(2))),
        ("M^2", alg.mul(alg.mass(), alg.mass())),
        ("Tau", obs.tau()),
        ("V[3]", obs.V(3)),
        ("Stensor[0,2]", obs.Stensor(0, 2)),
        ("D/2", alg.D().scale(Fraction(1, 2))),
        ("D - D", alg.zero()),
    ]
    for src, want in cases:
        assert elaborate(parse(src), {}, obs) == want, src


def test_elaborate_bracket_value(alg, obs):
    assert elaborate(parse("br(P[1], C[1])"), {}, obs) == alg.D().scale(2)


def test_elaborate_metric_and_epsilon(alg, obs):
    assert elaborate(parse("eta[0,0]"), {}, obs) == alg.scalar(1)
    assert elaborate(parse("eta[2,2]"), {}, obs) == alg.scalar(-1)
    assert elaborate(parse("eta[0,1]"), {}, obs).is_zero()
    assert elaborate(parse("eps[0,1,2,3]"), {}, obs) == alg.scalar(1)
    assert elaborate(parse("eps[1,0,2,3]"), {}, obs) == alg.scalar(-1)
    assert elaborate(parse("eps[0,0,1,2]"), {}, obs).is_zero()


def test_elaborate_sum_ranges(alg, obs):
    # single-letter variables run over 1..3, longer names over 0..3
    assert elaborate(parse("sum(i : eta[i,i])"), {}, obs) == alg.scalar(-3)
    assert elaborate(parse("sum(mu : eta[mu,mu])"), {}, obs) == alg.scalar(-2)
    m1 = FieldElem.momentum(1)
    m2 = FieldElem.momentum(2)
    m3 = FieldElem.momentum(3)
    want = alg.scalar(m1 * m1 + m2 * m2 + m3 * m3)
    assert elaborate(parse("sum(i : P[i]*P[i])"), {}, obs) == want


def test_elaborate_assignment_binding(alg, obs):
    t = parse("P[mu]")
    assert elaborate(t, {"mu": 2}, obs) == alg.momentum(2)
    with pytest.raises(UnboundIndex):
        elaborate(t, {}, obs)


def test_elaborate_linearity(alg, obs):
    a = elaborate(parse("br(D, C[1]) + 2*br(P[0], X[0])"), {}, obs)
    b = elaborate(parse("br(D, C[1])"), {}, obs) + elaborate(
        parse("br(P[0], X[0])"), {}, obs
    ).scale(2)
    assert a == b


def test_elaborate_index_range_errors(obs):
    with pytest.raises(IndexRangeError):
        elaborate(parse("Sigma[mu]"), {"mu": 0}, obs)
    with pytest.raises(IndexRangeError):
        elaborate(parse("Xi[i]"), {"i": 0}, obs)
    with pytest.raises(IndexRangeError):
        elaborate(parse("P[4]"), {}, obs)
    with pytest.raises(IndexRangeError):
        elaborate(parse("P[mu]"), {"mu": -1}, obs)


def test_elaborate_division_rules(alg, obs):
    assert elaborate(parse("D/M"), {}, obs) == alg.D().scale(FE_M.inv())
    with pytest.raises(NonCoefficientDivisor):
        elaborate(parse("D/D"), {}, obs)
    with pytest.raises(DivisionByZero):
        elaborate(parse("D/0"), {}, obs)


def test_engine_output_round_trips_through_language(alg, obs):
    # normal forms print in the same surface syntax the parser accepts, so
    # feeding a normal form back through parse+elaborate must reproduce it
    samples = [
        alg.bracket(alg.C(0), alg.D()),
        obs.X(2),
        obs.sigma(1),
        alg.bracket(obs.sigma(1), obs.sigma(2)),
        obs.tau(),
        alg.zero(),
        alg.mul(alg.C(1), alg.J(0, 1)),
    ]
    for s in samples:
        assert elaborate(parse(s.pretty()), {}, obs) == s


# ---------------------------------------------------------------------------
# the pruning elaborator against a plain tree walk
# ---------------------------------------------------------------------------

def _tree_walk(ast, assignment, obs):
    """Reference elaborator: no skips, every sum tuple in declared order."""
    alg = obs.alg

    def walk(node):
        return _tree_walk(node, assignment, obs)

    if isinstance(ast, Num):
        return alg.scalar(ast.value)
    if isinstance(ast, Sym):
        vals = dsl._resolve(ast.indices, assignment)
        dsl._check_range(ast.name, vals)
        return dsl._SYMBOLS[ast.name][1](obs, vals)
    if isinstance(ast, Bin):
        left, right = walk(ast.left), walk(ast.right)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return alg.mul(left, right)
        if ast.op == ".":
            return alg.dot(left, right)
        if ast.op == "/":
            return left.scale(dsl._as_coefficient(right).inv())
        return alg.bracket(left, right)
    if isinstance(ast, Neg):
        return -walk(ast.arg)
    if isinstance(ast, Pow):
        base = walk(ast.base)
        out = base
        for _ in range(ast.exponent - 1):
            out = alg.mul(out, base)
        return out
    if isinstance(ast, Sum):
        total = alg.zero()
        scope = dict(assignment)

        def expand(k):
            nonlocal total
            if k == len(ast.names):
                total = total + _tree_walk(ast.body, scope, obs)
                return
            name = ast.names[k]
            for v in index_range(name):
                scope[name] = v
                expand(k + 1)
            del scope[name]

        expand(0)
        return total
    raise TypeError(f"not an AST node: {ast!r}")


def _catalogue_cases(tag, obs):
    # the first assignment of each identity; and for one with a sum, also
    # the first at which its rhs is nonzero, so that a pruned sum is
    # compared with a nonzero value (spin-tensor-definition's first
    # assignment, mu=nu=0, sums to zero)
    for ident in catalog_by_suite(tag):
        if ident.builtin is not None:
            continue
        assignments = identity_assignments(ident)
        chosen = [assignments[0]]
        if "sum(" in ident.statement:
            for asg in assignments:
                if not _tree_walk(ident.rhs_ast, asg, obs).is_zero():
                    if asg != assignments[0]:
                        chosen.append(asg)
                    break
        for asg in chosen:
            yield from ((f"{ident.id} lhs {asg}", ident.lhs_ast, asg),
                        (f"{ident.id} rhs {asg}", ident.rhs_ast, asg))


@pytest.mark.parametrize("tag", ["localisation", "canonical"])
def test_elaborate_matches_tree_walk_on_catalogue(obs, tag):
    cases = list(_catalogue_cases(tag, obs))
    assert cases
    for what, ast, asg in cases:
        assert elaborate(ast, asg, obs) == _tree_walk(ast, asg, obs), what
    if tag == "localisation":
        whats = [what for what, _, _ in cases]
        assert "spin-tensor-definition rhs {'mu': 0, 'nu': 1}" in whats


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConfalgError as exc:
        return type(exc), str(exc)


def test_elaborate_errors_inside_sums(alg, obs):
    # a zero factor skips only an operand that cannot raise, and a sum is
    # reordered only when no factor of its chain can; so every error still
    # surfaces, whatever the factor it sits next to
    with pytest.raises(IndexRangeError):
        elaborate(parse("sum(mu : 0*Sigma[mu])"), {}, obs)
    with pytest.raises(DivisionByZero):
        elaborate(parse("sum(i : 0*(D/0))"), {}, obs)
    with pytest.raises(UnboundIndex):
        elaborate(parse("sum(i : P[i]*P[nu])"), {}, obs)
    with pytest.raises(IndexRangeError):
        elaborate(parse("sum(mu : eps[mu,0,1,2]*Xi[mu])"), {}, obs)
    # a body that uses no summed name is still added once per iteration
    assert elaborate(parse("sum(i : D)"), {}, obs) == alg.D().scale(3)
    # value errors next to a zero factor
    with pytest.raises(DivisionByZero):
        elaborate(parse("0*(P[0]/eta[0,1])"), {}, obs)
    # a zero numerator still has its divisor checked
    for src, error in (("0/0", DivisionByZero),
                       ("0/eta[0,1]", DivisionByZero),
                       ("0/(P[1] - P[1])", DivisionByZero),
                       ("0/D", NonCoefficientDivisor)):
        got = _outcome(elaborate, parse(src), {}, obs)
        assert got == _outcome(_tree_walk, parse(src), {}, obs), src
        assert got[0] is error, src
    with pytest.raises(NonCoefficientDivisor):
        elaborate(parse("0*(D/D)"), {}, obs)
    with pytest.raises(UnboundIndex):
        elaborate(parse("0*P[nu]"), {}, obs)
    with pytest.raises(IndexRangeError):
        elaborate(parse("sum(mu : eta[mu,1]*Xi[mu])"), {}, obs)
    # one factor that may not be skipped keeps the whole chain in declared
    # order: Xi[0] raises before Sigma[0] would
    ast = parse("sum(mu, nu : eta[nu,1]*Xi[mu]*Sigma[nu])")
    got = _outcome(elaborate, ast, {}, obs)
    assert got == _outcome(_tree_walk, ast, {}, obs)
    assert got[0] is IndexRangeError and "for Xi" in got[1]
    # a subtree object met both inside a sum and outside it, where mu is
    # unbound, is decided at each place: outside it raises in either order
    shared = parse("0*P[mu]")
    for tree in (Bin("+", shared, Sum(("mu",), shared)),
                 Bin("+", Sum(("mu",), shared), shared)):
        with pytest.raises(UnboundIndex):
            elaborate(tree, {}, obs)


# factors of a random chain: scalars (the metric, the alternating symbol,
# momenta, the mass) and operators (rotations, spin, position)
_CHAIN_SYMBOLS = ("eta", "eta", "eps", "P", "M", "J", "S", "X", "Xi")
_CHAIN_NAMES = ("i", "j", "mu", "nu", "rho")
_DIVISORS = ("M", "M^2", "P[{}]", "2", "0", "eta[{},1]", "D")


def _rand_chain_sum(rng):
    names = rng.sample(_CHAIN_NAMES, rng.randint(1, 3))
    free = [n for n in _CHAIN_NAMES if n not in names]
    pool = names * 3 + free[:1] + [str(v) for v in range(4)]
    factors, operators = [], 0
    for _ in range(rng.randint(2, 5)):
        sym = rng.choice(_CHAIN_SYMBOLS)
        if sym in ("J", "S", "X", "Xi"):
            if operators == 1:
                sym = "eta"
            operators += 1
        arity = SYMBOL_ARITY[sym]
        factors.append(
            f"{sym}[{','.join(rng.choice(pool) for _ in range(arity))}]"
            if arity else sym
        )
    if rng.random() < 0.7:
        k = rng.randrange(len(factors))
        divisor = rng.choice(_DIVISORS).format(rng.choice(pool))
        factors[k] = f"({factors[k]}/{divisor})"
    body = "*".join(factors)
    if rng.random() < 0.3:
        body = "-1/2*" + body
    assignment = {n: rng.randint(0, 3) for n in free if rng.random() < 0.8}
    return f"sum({', '.join(names)} : {body})", assignment


def _rand_nested_sum(rng):
    # a random chain sum inside a sum over the one free name its chain may
    # use, either as the whole body or as the middle factor of a chain
    inner, assignment = _rand_chain_sum(rng)
    outer = next(n for n in _CHAIN_NAMES if n not in parse(inner).names)
    assignment.pop(outer, None)
    if rng.random() < 0.5:
        return f"sum({outer} : {inner})", assignment
    v = rng.randint(0, 3)
    return f"sum({outer} : eta[{outer},{v}]*{inner}*P[{outer}])", assignment


def test_pruned_sums_match_tree_walk_on_random_chains(obs):
    # a sum of a random product chain, alone or nested in another sum,
    # equals the plain tree walk, or both raise the same error class and
    # message
    rng = random.Random(20261018)
    for make, cases, least in ((_rand_chain_sum, 120, 10),
                               (_rand_nested_sum, 40, 3)):
        raised = zero = 0
        for _ in range(cases):
            src, asg = make(rng)
            ast = parse(src)
            want = _outcome(_tree_walk, ast, asg, obs)
            assert _outcome(elaborate, ast, asg, obs) == want, (src, asg)
            raised += isinstance(want, tuple)
            zero += not isinstance(want, tuple) and want.is_zero()
        # errors, zero sums and nonzero sums all occur
        assert raised > least and zero > least, make
        assert cases - raised - zero > least, make


# ---------------------------------------------------------------------------
# +/- chains summed in one Algebra.combine against the binary fold
# ---------------------------------------------------------------------------

def _binary_fold(ast, asg, obs, budget=DEFAULT_BUDGET):
    """Reference: a top-level +/- chain folded left + right, each leaf
    elaborated on its own (a product leaf as one top-level operation)."""
    if isinstance(ast, Bin) and ast.op in ("+", "-"):
        left = _binary_fold(ast.left, asg, obs, budget)
        right = elaborate(ast.right, asg, obs, budget)
        return left + right if ast.op == "+" else left - right
    return elaborate(ast, asg, obs, budget)


# chain leaves: products of every kind with unit, rational and non-unit
# coefficients and M, zero products, a nested chain and plain operands
_CHAIN_LEAVES = (
    "C[0]*D", "P[1]/(P[0] + M)*J[0,1]", "D . X[1]", "br(C[1], X[2])",
    "M*C[2]", "(J[1,2] + D)*C[3]", "-(D*C[0])", "eta[0,1]*S[1]",
    "X[0] . P[0]", "1/2*(X[1]*P[1] + P[1]*X[1])", "br(X[0], P[0])*M",
    "0*(C[0]*D)", "eta[2,3]*(X[1] . X[2])", "(D - M*C[1])", "M", "2/3*D",
    "Xi[1]", "P[2]",
)


def _rand_sum_chain(rng):
    leaves = [rng.choice(_CHAIN_LEAVES) for _ in range(rng.randint(2, 5))]
    text = leaves[0]
    for leaf in leaves[1:]:
        text += rng.choice((" + ", " - ")) + leaf
    return text


def test_chains_match_the_binary_fold(obs):
    rng = random.Random(20261021)
    # every chain is one combine, with or without a product leaf; these
    # have none, and the last two cancel to zero
    plain = ["M - Xi[1] + P[2]", "-(D*C[0]) - (D - M*C[1]) + M",
             "Xi[1] - Xi[1]", "P[2] + 1 - P[2] - 1"]
    for src in plain + [_rand_sum_chain(rng) for _ in range(80)]:
        ast = parse(src)
        want = _binary_fold(ast, {}, obs)
        assert elaborate(ast, {}, obs) == want, src
        assert _tree_walk(ast, {}, obs) == want, src


def _budget_outcome(fn, ast, budget):
    """(outcome, rewrite memo sizes) of fn on a fresh engine at budget."""
    obs = Observables(build_algebra())
    return _outcome(fn, ast, {}, obs, budget), rewrite_memo_sizes(obs.alg)


def test_chains_refuse_the_same_product_as_the_binary_fold():
    # the leaves are elaborated, budget-checked and accumulated in order,
    # so at every budget the first product refused, and the engine work
    # done before it, are those of the binary fold
    rng = random.Random(20261022)
    # a product leaf that sorts a new word, then one refused at most budgets
    chains = ["C[0]*D + br(C[1], X[2])", "J[2,3]*C[1] - M + D . X[1]",
              "C[2]*J[0,1] + Xi[1] - (J[1,2] + D)*C[3] + br(X[0], P[0])*M"]
    chains += [_rand_sum_chain(rng) for _ in range(8)]
    refused = 0
    for src in chains:
        ast = parse(src)
        for budget in (0, 1, 2, 3, 4, 6, 9, 14, 20, 40):
            got = _budget_outcome(elaborate, ast, budget)
            assert got == _budget_outcome(_binary_fold, ast, budget), (ast, budget)
            refused += isinstance(got[0], tuple)
    assert refused > 20


def test_chain_skips_and_errors(alg, obs):
    reversed_word = "*".join(("C[3]", "C[2]", "C[1]", "C[0]", "J[2,3]", "D"))
    # a zero left factor skips a right operand that cannot raise: the
    # product that would exceed the budget is never formed
    for src in (f"D + 0*({reversed_word})", f"0*({reversed_word}) - D"):
        ast = parse(src)
        got = elaborate(ast, {}, obs, 10)
        assert got == _binary_fold(ast, {}, obs, 10)
        assert got in (alg.D(), -alg.D())
        with pytest.raises(RewriteBudgetExceeded):
            elaborate(parse(src.replace("0*", "1*")), {}, obs, 10)
    # a right operand that can raise is still elaborated
    for src, error in (("D + 0*X[7]", IndexRangeError),
                       ("D - 0*(C[0]/D)", NonCoefficientDivisor),
                       ("0*(D/0) + D*C[0]", DivisionByZero),
                       ("D*C[0] - 0*P[nu]", UnboundIndex)):
        got = _outcome(elaborate, parse(src), {}, obs)
        assert got == _outcome(_binary_fold, parse(src), {}, obs), src
        assert got[0] is error, src
    # a dot leaf is its two terms, x*y - (x, y)/2
    x, y = obs.X(1), alg.C(0)
    got = elaborate(parse("X[1] . C[0] - D"), {}, obs)
    assert got == alg.dot(x, y) - alg.D()
    assert got == (alg.mul(x, y) + alg.mul(y, x)).scale(Fraction(1, 2)) - alg.D()


def test_spin_vector_rhs_skips_zero_products(obs, monkeypatch):
    # the eps prefix keeps 6 of the 64 (an, ar, as) tuples and each eta 1 of
    # 4 values: 148 products and 159 elaborations, where a declared-order
    # walk makes 13,632 and 31,372, and one that only stops a product at a
    # zero left operand still visits all 4,096 tuples (17,886 elaborations)
    ident = next(
        i for i in catalog_by_suite("localisation")
        if i.id == "spin-vector-definition"
    )
    muls, walks = [], []
    mul, walk = type(obs.alg).mul, dsl._elaborate

    def counted_mul(self, x, y):
        muls.append(1)
        return mul(self, x, y)

    def counted_walk(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(type(obs.alg), "mul", counted_mul)
    monkeypatch.setattr(dsl, "_elaborate", counted_walk)
    assert not elaborate(ident.rhs_ast, {"mu": 0}, obs).is_zero()
    assert len(muls) <= 1000
    assert len(walks) <= 1000


def test_zero_numerator_skips_the_inverse(alg, obs, monkeypatch):
    # a zero over a nonzero coefficient is zero, and Q(P)[M] is a field, so
    # the divisor is never inverted
    calls = []
    inv = FieldElem.inv

    def counted_inv(self):
        calls.append(1)
        return inv(self)

    monkeypatch.setattr(FieldElem, "inv", counted_inv)
    for src in ("0/(P[0] + M)", "(eta[0,1]*D)/(P[0] + M)"):
        assert elaborate(parse(src), {}, obs) == alg.zero(), src
    assert not calls


def test_elaborate_leaves_no_garbage(obs):
    # what a call builds (the binding plans) is reachable from no reference
    # cycle, so it is freed when the call returns rather than at the next
    # collection
    ast = parse("sum(nu, rho : eta[nu,rho]*(J[rho,mu] . (P[nu]/M^2)))")
    gc.collect()
    elaborate(ast, {"mu": 1}, obs)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# the front end at scale
# ---------------------------------------------------------------------------

def _operator_texts(workloads, seed):
    laws = workloads.generate_random_laws(seed)[0]["laws"]
    return [law["text"] for law in laws if "text" in law]


def test_front_end_reads_the_recorded_trees():
    # every catalogue record and the operator laws of random-laws seeds
    # 1-4 (720 texts) parse to the trees that the character-loop
    # tokenizer and recursive-descent parser built, printed and hashed
    workloads = perfbench_workloads()
    lines = [
        f"{ident.id}: {ast_pretty(ident.lhs_ast)} = {ast_pretty(ident.rhs_ast)}"
        for ident in catalog() if ident.builtin is None
    ]
    for seed in (1, 2, 3, 4):
        lines += [ast_pretty(parse(t)) for t in _operator_texts(workloads, seed)]
    assert len(lines) == 765
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "e49bbf2cc4b18131d8b1a9733ea683ecb5d5514f6656c048d07a7cac07d518d0"
    )


def _fresh_leaf(key, obs):
    """The operator of a leaf key, built anew on a cold observable cache."""
    if isinstance(key, int):
        return obs.alg.scalar(key)
    name, *vals = key
    return dsl._SYMBOLS[name][1](obs, vals)


def test_shared_leaves_equal_fresh_ones():
    ctx = get_context()
    workloads = perfbench_workloads()
    run_all(ctx)
    verdicts = workloads.run_laws(workloads.generate_random_laws(1)[0]["laws"], ctx)
    assert "nonzero" in verdicts and "zero" in verdicts
    leaves = ctx.obs.leaves
    symbols = [key for key in leaves if isinstance(key, tuple)]
    assert any(isinstance(key, int) for key in leaves)
    assert len(leaves) <= dsl._LEAF_CAP
    # the vocabulary bounds the symbol keys
    vocabulary = sum(
        len(dsl._LEGAL[name]) ** arity for name, arity in SYMBOL_ARITY.items()
    )
    assert vocabulary == 333
    assert len(symbols) <= vocabulary
    cold = Observables(ctx.alg)
    for key, value in leaves.items():
        assert value == _fresh_leaf(key, cold), key


def test_leaf_table_stays_bounded(alg):
    obs = Observables(alg)
    for n in range(2 * dsl._LEAF_CAP + 5):
        assert elaborate(Num(n), {}, obs) == alg.scalar(n)
        assert len(obs.leaves) <= dsl._LEAF_CAP
    # a full table still checks what it has not seen
    p = elaborate(parse("P[i]"), {"i": 2}, obs)
    assert p == alg.momentum(2)
    assert elaborate(parse("P[i]"), {"i": 2}, obs) is p
    with pytest.raises(IndexRangeError):
        elaborate(parse("P[i]"), {"i": 4}, obs)
    with pytest.raises(UnboundIndex):
        elaborate(parse("P[j]"), {"i": 2}, obs)
    with pytest.raises(IndexRangeError):
        elaborate(parse("Xi[0]"), {}, obs)
