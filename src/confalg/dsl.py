"""Expression language for operators and identities.

The grammar (one expression per string; whitespace free-form):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "." | "/") unary)*
    unary   := "-" unary | power
    power   := primary ("^" INT)?
    primary := INT
             | NAME ("[" index ("," index)* "]")?
             | "(" expr ")"
             | "br" "(" expr "," expr ")"
             | "sum" "(" NAME ("," NAME)* ":" expr ")"
    index   := INT | NAME

"*" is the operator product, "." the symmetrized half-anticommutator,
br(a, b) the scaled commutator. All four infix factors associate left and
share one precedence level; "^" takes a positive integer and binds tighter
than unary minus. Rational literals are spelled as quotients (1/2).

Indices are written lower everywhere; raising is an explicit eta
contraction. An index variable is a name: single-letter names range over
the spatial values 1..3, longer names over 0..3. sum(...) binds its
variables over those ranges; every other variable must be supplied by the
caller's assignment.

INT is ASCII digits, for a numeral, an index and an exponent alike. A
literal longer than int() reads (sys.get_int_max_str_digits, 4300 digits
by default) is a DslSyntaxError at the literal's line and column.

The front end: _tokenize reads the source with one regular expression into
plain (kind, text, line, col) tuples, and _Parser parses them by operator
precedence. Nodes are plain slotted classes that compare and hash by
value through their one base class.
elaborate builds each leaf once per observable cache: Observables.leaves
maps a numeral's int and a symbol's (name, *index values) to its
operator, so a leaf met again is one lookup with no range check. Symbols
give at most 333 keys; the table is emptied when it holds 1024 entries,
so numerals cannot grow it without bound.
"""

import re

from .conformal import eps4, eta
from .errors import (
    ArityError,
    DslSyntaxError,
    IndexRangeError,
    NonCoefficientDivisor,
    UnboundIndex,
    UnknownSymbol,
)
from .field import FE_ZERO
from .nc import DEFAULT_BUDGET, check_budget

__all__ = [
    "Num", "Sym", "Bin", "Neg", "Pow", "Sum",
    "parse", "elaborate", "ast_pretty", "children", "index_range",
    "SYMBOL_ARITY",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# Nodes are immutable by convention, as Polynomial and NCExpr are: nothing
# assigns to a field after construction. They compare and hash by value.

class _Node:
    """Base of the AST nodes. A node's fields are its __slots__, in
    constructor order; two nodes are equal when they are of one class with
    equal fields, and a node hashes by its fields."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__name__}({fields})"


class Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Sym(_Node):
    __slots__ = ("name", "indices")  # indices: ints and/or index-variable names

    def __init__(self, name, indices):
        self.name = name
        self.indices = indices


# Precedence levels; higher binds tighter. All of * . / share one level and
# associate left, as + and - do, so a left operand at the same level prints
# bare while a right operand needs parentheses.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5

# Binary operators: op -> (precedence, spelling between the operands);
# br(a, b) prints as a call, so it binds like an atom. _PRODUCTS are the
# operators that multiply their operands, _SUMS those that add them.
_BINARY = {
    "+": (_PREC_ADD, " + "),
    "-": (_PREC_ADD, " - "),
    "*": (_PREC_MUL, "*"),
    ".": (_PREC_MUL, " . "),
    "/": (_PREC_MUL, "/"),
    "br": (_PREC_ATOM, None),
}
_PRODUCTS = ("*", ".", "br")
_SUMS = ("+", "-")


class Bin(_Node):
    """left op right, for each op in _BINARY."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _BINARY:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right


class Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Pow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent


class Sum(_Node):
    __slots__ = ("names", "body")

    def __init__(self, names, body):
        self.names = names
        self.body = body


def children(node):
    """The subtrees of node, left to right; none for a leaf."""
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Sum):
        return (node.body,)
    return ()


# Vocabulary: name -> (index count, builder); a builder makes the symbol's
# operator from the observable cache and the list of index values.
_SYMBOLS = {
    "P": (1, lambda obs, v: obs.alg.momentum(v[0])),
    "J": (2, lambda obs, v: obs.alg.J(v[0], v[1])),
    "D": (0, lambda obs, v: obs.alg.D()),
    "C": (1, lambda obs, v: obs.alg.C(v[0])),
    "M": (0, lambda obs, v: obs.alg.mass()),
    "X": (1, lambda obs, v: obs.X(v[0])),
    "S": (1, lambda obs, v: obs.S(v[0])),
    "Stensor": (2, lambda obs, v: obs.Stensor(v[0], v[1])),
    "Sigma": (1, lambda obs, v: obs.sigma(v[0])),
    "Xi": (1, lambda obs, v: obs.xi(v[0])),
    "Tau": (0, lambda obs, v: obs.tau()),
    "V": (1, lambda obs, v: obs.V(v[0])),
    "eta": (2, lambda obs, v: obs.alg.scalar(eta(*v))),
    "eps": (4, lambda obs, v: obs.alg.scalar(eps4(*v))),
}

SYMBOL_ARITY = {name: arity for name, (arity, _) in _SYMBOLS.items()}

# Legal values of each symbol's indices: Sigma and Xi take spatial indices
# only, everything else indexed ranges over 0..3.
_LEGAL = {
    name: frozenset((1, 2, 3) if name in ("Sigma", "Xi") else (0, 1, 2, 3))
    for name in SYMBOL_ARITY
}


def index_range(name):
    """Value range of an index variable: single-letter names are spatial."""
    return (1, 2, 3) if len(name) == 1 else (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# One match per token, with the spaces, tabs and carriage returns before it
# in the first group; spaces at the very end match nothing. A name starts
# with a letter (str.isalpha) or "_" and goes on with \w, which is
# str.isalnum or "_". [^\W\d] also admits numeric characters such as
# "²", so a name that starts outside ASCII is checked with str.isalpha.
# An integer is ASCII digits only.
_TOKEN = re.compile(
    r"([ \t\r]*)(?:"
    r"([-+*./^()\[\],:])"  # punctuation
    r"|([A-Za-z_]\w*)"  # name
    r"|([0-9]+)"  # integer
    r"|([^\W\d]\w*)"  # name, or a character that starts nothing
    r"|(\n)"
    r"|([^ \t\r]))"  # a character that starts nothing
)


def _tokenize(src):
    """(kind, text, line, col) tuples, the last of kind "end"; kind is "int",
    "name", or the punctuation character itself. Every character counts
    one column, and a newline starts the next line at column 1."""
    out = []
    line, base, i = 1, -1, 0  # base: the index of the newline before the line
    for space, punct, name, num, other, newline, bad in _TOKEN.findall(src):
        i += len(space)
        if punct:
            out.append((punct, punct, line, i - base))
            i += 1
        elif name:
            out.append(("name", name, line, i - base))
            i += len(name)
        elif num:
            out.append(("int", num, line, i - base))
            i += len(num)
        elif newline:
            line, base = line + 1, i
            i += 1
        elif other[:1].isalpha():
            out.append(("name", other, line, i - base))
            i += len(other)
        else:
            ch = (other or bad)[0]
            raise DslSyntaxError(f"unexpected character {ch!r}", line, i - base)
    out.append(("end", "", line, len(src) - base))
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# infix operator -> precedence; br is spelled as a call
_INFIX = {op: prec for op, (prec, spelled) in _BINARY.items() if spelled}


class _Parser:
    """Operator-precedence parser over _tokenize's tuples (Pratt, "Top down
    operator precedence", POPL 1973): parse_expr folds the infix
    operators of both levels, parse_unary takes leading minuses and a
    power in one step, and parse_primary reads one atom. An atom costs
    these three calls."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t[0] != kind:
            raise DslSyntaxError(f"expected {what}, found {_shown(t)!r}", *t[2:])
        return t

    def separated(self, close, where):
        """Yield once per item of "item (',' item)* close".

        The caller's loop body parses one item; this consumes the ',' after
        it, or the close, which ends the loop.
        """
        while True:
            yield
            t = self.next()
            if t[0] == close:
                return
            if t[0] != ",":
                raise DslSyntaxError(
                    f"expected ',' or '{close}' in {where}", *t[2:]
                )

    def parse_expr(self, level=_PREC_ADD):
        """Operands joined by infix operators of precedence level or above,
        associated left: the right operand of an operator takes only the
        operators that bind tighter than it."""
        node = self.parse_unary()
        tokens = self.tokens
        while True:
            op = tokens[self.pos][0]
            prec = _INFIX.get(op, 0)
            if prec < level:
                return node
            self.pos += 1
            if prec == _PREC_MUL:
                right = self.parse_unary()
            else:
                right = self.parse_expr(_PREC_MUL)
            node = Bin(op, node, right)

    def parse_unary(self):
        """"-"* primary ("^" INT)?; the minuses apply to the power."""
        tokens = self.tokens
        start = self.pos
        while tokens[self.pos][0] == "-":
            self.pos += 1
        minuses = self.pos - start
        node = self.parse_primary()
        if tokens[self.pos][0] == "^":
            caret = self.next()
            n = _int(self.expect("int", "a positive integer exponent"))
            if n < 1:
                raise DslSyntaxError(
                    "exponent must be a positive integer", *caret[2:]
                )
            node = Pow(node, n)
        for _ in range(minuses):
            node = Neg(node)
        return node

    def parse_primary(self):
        t = self.next()
        kind, text = t[0], t[1]
        if kind == "int":
            return Num(_int(t))
        if kind == "(":
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        if kind != "name":
            raise DslSyntaxError(
                f"expected an expression, found {_shown(t)!r}", *t[2:]
            )
        if text == "br":
            return self.parse_br()
        if text == "sum":
            return self.parse_sum()
        arity = SYMBOL_ARITY.get(text)
        if arity is None:
            raise UnknownSymbol(
                f"unknown symbol {text!r} (line {t[2]}, column {t[3]})"
            )
        indices = []
        if self.tokens[self.pos][0] == "[":
            self.pos += 1
            for _ in self.separated("]", "index list"):
                it = self.next()
                if it[0] == "int":
                    indices.append(_int(it))
                elif it[0] == "name":
                    indices.append(_index_name(it))
                else:
                    raise DslSyntaxError(
                        f"expected an index, found {_shown(it)!r}", *it[2:]
                    )
        if len(indices) != arity:
            raise ArityError(
                f"{text} takes {arity} index(es), got {len(indices)} "
                f"(line {t[2]}, column {t[3]})"
            )
        return Sym(text, tuple(indices))

    def parse_br(self):
        self.expect("(", "'(' after br")
        a = self.parse_expr()
        self.expect(",", "',' between bracket arguments")
        b = self.parse_expr()
        self.expect(")", "')'")
        return Bin("br", a, b)

    def parse_sum(self):
        self.expect("(", "'(' after sum")
        names = []
        for _ in self.separated(":", "sum variable list"):
            t = self.expect("name", "an index variable name")
            name = _index_name(t)
            if name in names:
                raise DslSyntaxError(
                    f"duplicate summation variable {name!r}", *t[2:]
                )
            names.append(name)
        body = self.parse_expr()
        self.expect(")", "')'")
        return Sum(tuple(names), body)


def _shown(t):
    """How an error message names token t."""
    return "end of input" if t[0] == "end" else t[1]


def _int(t):
    """The value of int token t; a literal longer than int() reads
    (sys.get_int_max_str_digits) is a syntax error at the literal."""
    try:
        return int(t[1])
    except ValueError:
        raise DslSyntaxError(
            f"integer literal too long ({len(t[1])} digits)", *t[2:]
        ) from None


def _index_name(t):
    """The text of name token t, which must not spell a symbol or a keyword."""
    text = t[1]
    if text in SYMBOL_ARITY or text in ("br", "sum"):
        raise DslSyntaxError(
            f"{text!r} cannot be used as an index variable", *t[2:]
        )
    return text


def parse(src):
    """Parse one expression; errors carry the 1-based line and column."""
    p = _Parser(_tokenize(src))
    node = p.parse_expr()
    tail = p.tokens[p.pos]
    if tail[0] != "end":
        raise DslSyntaxError(f"unexpected trailing input {tail[1]!r}", *tail[2:])
    return node


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------

#: an observable cache's leaf table is emptied when it reaches this many
#: entries
_LEAF_CAP = 1024


def _resolve(indices, assignment):
    vals = []
    for ix in indices:
        if isinstance(ix, int):
            vals.append(ix)
        else:
            v = assignment.get(ix)
            if v is None:
                raise UnboundIndex(f"index variable {ix!r} has no value")
            vals.append(v)
    return vals


def _shared(obs, key, value):
    """Store value as the leaf of key in obs.leaves and return it. The
    table is emptied when it holds _LEAF_CAP entries, so numerals cannot
    grow it without bound; the symbol keys number at most 333."""
    if len(obs.leaves) >= _LEAF_CAP:
        obs.leaves.clear()
    obs.leaves[key] = value
    return value


def _check_range(name, vals):
    legal = _LEGAL[name]
    for v in vals:
        if v not in legal:
            raise IndexRangeError(
                f"index {v} out of range {min(legal)}..3 for {name}"
            )


def elaborate(ast, assignment, obs, budget=DEFAULT_BUDGET):
    """Expand an AST into a normalized operator.

    assignment maps index-variable names to concrete values; obs is the
    observable cache whose algebra receives the result. Each product it
    names ("*", ".", br, each step of "^") first passes nc.check_budget.

    Work that multiplies by zero is skipped where skipping cannot hide a
    ConfalgError. It can hide a RecursionError (see the README's rewrite
    budget section): "0*(C[0]*D^1200)" gives 0. An operand is skippable
    where it is met when its elaboration there can raise no ConfalgError
    but RewriteBudgetExceeded: every index is bound and in range for its
    symbol (a name at its current value, the name of a sum inside the
    operand over all of index_range), every "/" divides by a nonzero
    numeral, P[i], M or a power of these, and the rest is built from such
    pieces with + - * . ^ br sum and unary minus.
    A "*", "." or br whose left operand is zero returns that zero without
    elaborating a skippable right operand, and so spends no budget on it.
    A sum that is skippable where it is met and whose body is a chain
    a*b*...*z (any mix of "*", "." and br, associated left) binds its
    names in the order in which the chain's prefixes first need them, and
    drops every tuple that extends a binding whose prefix is zero. Any
    other sum runs its tuples in declared order. The tuples' terms are
    added in one Algebra.combine. An operand that is not
    skippable at some binding is reached there, so errors surface as a
    plain tree walk's do.
    A "/" whose numerator is zero returns it without inverting a nonzero
    divisor; a zero or non-scalar divisor still raises.
    A left-nested chain of "+" and "-" is one Algebra.combine: each "*",
    "." or br leaf is skipped or passes check_budget as above and enters
    as a signed product term, any other leaf as its signed value. The
    leaves are elaborated left to right as combine asks for them, so
    engine work runs in the order of the binary fold and the first error
    is the same.
    """
    return _elaborate(ast, assignment, obs, budget)


def _dependencies(node):
    """Index names the value of node depends on."""
    if isinstance(node, Sym):
        return frozenset(ix for ix in node.indices if not isinstance(ix, int))
    out = frozenset().union(*map(_dependencies, children(node)))
    return out.difference(node.names) if isinstance(node, Sum) else out


def _safe(node, scope):
    """Whether node is skippable (see elaborate) in scope.

    scope maps a name to its value, or, for the name of a sum inside the
    operand, to the tuple of values it ranges over.
    """
    if isinstance(node, Bin):
        right = _nonzero_divisor if node.op == "/" else _safe
        return _safe(node.left, scope) and right(node.right, scope)
    if isinstance(node, Sym):
        for ix in node.indices:
            vals = scope.get(ix) if isinstance(ix, str) else ix
            if not isinstance(vals, tuple):
                vals = (vals,)
            if not _LEGAL[node.name].issuperset(vals):
                return False
        return True
    if isinstance(node, Sum):
        inner = dict(scope)
        inner.update((n, index_range(n)) for n in node.names)
        return _safe(node.body, inner)
    if isinstance(node, (Num, Neg, Pow)):
        return all(_safe(child, scope) for child in children(node))
    return False


def _nonzero_divisor(node, scope):
    """A nonzero numeral, P[i], M, or a power of these, with legal indices."""
    if isinstance(node, Pow):
        return _nonzero_divisor(node.base, scope)
    if isinstance(node, Num):
        return node.value != 0
    if isinstance(node, Sym) and node.name in ("P", "M"):
        return _safe(node, scope)
    return False


def _binding_plan(node, scope):
    """(order, factors, links, need) for summing node in scope.

    If node is skippable in scope, factors are the operands of the body's
    left-nested "*", "." and br chain, links[k] the operator whose right
    operand is factors[k], order the sum's names in the order in which the
    chain's prefixes first need them, and need[k] the length of the prefix
    of order that must be bound before factors[k] is elaborated, which
    never decreases with k. Otherwise the body is the one factor, needing
    every name, in declared order.
    """
    chained = _safe(node, scope)
    factors, links = [node.body], [None]
    while chained and _is_product(factors[0]):
        link = factors[0]
        factors[0:1] = [link.left, link.right]
        links[0:1] = [None, link.op]
    if chained:
        order, need = [], []
        for f in factors:
            used = _dependencies(f)
            order += [n for n in node.names if n in used and n not in order]
            need.append(len(order))
        order += [n for n in node.names if n not in order]
    else:
        order, need = list(node.names), [len(node.names)]
    return tuple(order), tuple(factors), tuple(links), tuple(need)


def _elaborate(node, scope, obs, budget):
    alg = obs.alg
    if isinstance(node, Sym):
        key = (node.name, *_resolve(node.indices, scope))
        hit = obs.leaves.get(key)
        if hit is None:
            _check_range(node.name, key[1:])
            hit = _shared(obs, key, _SYMBOLS[node.name][1](obs, key[1:]))
        return hit
    if isinstance(node, Num):
        hit = obs.leaves.get(node.value)
        if hit is None:
            hit = _shared(obs, node.value, alg.scalar(node.value))
        return hit
    if isinstance(node, Sum):
        plan = _binding_plan(node, scope)
        return alg.combine(_bind(0, 0, None, plan, dict(scope), obs, budget))
    if isinstance(node, Neg):
        return -_elaborate(node.arg, scope, obs, budget)
    if isinstance(node, Pow):
        base = _elaborate(node.base, scope, obs, budget)
        out = base
        for _ in range(node.exponent - 1):
            out = _link(alg, "*", out, base, budget)
        return out
    if isinstance(node, Bin):
        op = node.op
        if op in _SUMS:
            leaves = _chain_leaves(node)
            return alg.combine(_chain_terms(leaves, scope, obs, budget))
        left = _elaborate(node.left, scope, obs, budget)
        if op in _PRODUCTS:
            if left.is_zero() and _safe(node.right, scope):
                return left
            right = _elaborate(node.right, scope, obs, budget)
            return _link(alg, op, left, right, budget)
        right = _elaborate(node.right, scope, obs, budget)
        c = _as_coefficient(right)
        # Q is not a square, so every nonzero element of Q(P)[M] is invertible
        if left.is_zero() and not c.is_zero():
            return left
        return alg.divide(left, c)
    raise TypeError(f"not an AST node: {node!r}")


def _is_product(node):
    return isinstance(node, Bin) and node.op in _PRODUCTS


def _chain_leaves(node):
    """The (sign, leaf) pairs of a left-nested "+"/"-" chain, left to right."""
    leaves = []
    while isinstance(node, Bin) and node.op in _SUMS:
        leaves.append((-1 if node.op == "-" else 1, node.right))
        node = node.left
    leaves.append((1, node))
    leaves.reverse()
    return leaves


def _chain_terms(leaves, scope, obs, budget):
    """The Algebra.combine terms of a chain's signed leaves, each leaf
    elaborated when its terms are asked for. A product leaf skips and
    passes check_budget as a lone product does."""
    for sign, leaf in leaves:
        if not _is_product(leaf):
            yield sign, None, _elaborate(leaf, scope, obs, budget), None
            continue
        left = _elaborate(leaf.left, scope, obs, budget)
        if left.is_zero() and _safe(leaf.right, scope):
            continue
        right = _elaborate(leaf.right, scope, obs, budget)
        check_budget(budget, left, right)
        yield sign, leaf.op, left, right


def _link(alg, op, left, right, budget):
    """The product op ("*", "." or br) names, of left and right, in budget."""
    check_budget(budget, left, right)
    if op == "*":
        return alg.mul(left, right)
    if op == ".":
        return alg.dot(left, right)
    return alg.bracket(left, right)


def _bind(level, k, prefix, plan, scope, obs, budget):
    """Yield the sum's terms over the names from order[level] on, as
    Algebra.combine terms (1, None, term, None).

    order[:level] is bound in scope, and prefix is the product of
    factors[:k] (None while k is 0), those that need fewer names. Each
    factor k with need[k] == level extends it here; a zero prefix drops
    the whole block.
    """
    order, factors, links, need = plan
    while k < len(factors) and need[k] == level:
        right = _elaborate(factors[k], scope, obs, budget)
        prefix = _link(obs.alg, links[k], prefix, right, budget) if k else right
        if prefix.is_zero():
            return
        k += 1
    if level == len(order):
        yield 1, None, prefix, None
        return
    name = order[level]
    for v in index_range(name):
        scope[name] = v
        yield from _bind(level + 1, k, prefix, plan, scope, obs, budget)


def _as_coefficient(expr):
    """The coefficient of a pure-scalar operator; anything else is rejected."""
    if expr.is_zero():
        return FE_ZERO  # .inv() raises the division error with the right type
    words = set(expr.terms)
    if words != {()}:
        raise NonCoefficientDivisor(
            "divisor contains operator letters and is not a pure coefficient"
        )
    return expr.terms[()]


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _prec(node):
    if isinstance(node, Bin):
        return _BINARY[node.op][0]
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(node, parent_prec, right_side):
    txt = ast_pretty(node)
    p = _prec(node)
    if p < parent_prec or (p == parent_prec and right_side):
        return f"({txt})"
    return txt


def ast_pretty(node):
    """Render an AST back to source; parse(ast_pretty(t)) == t."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        if not node.indices:
            return node.name
        inner = ",".join(str(ix) for ix in node.indices)
        return f"{node.name}[{inner}]"
    if isinstance(node, Bin):
        if node.op == "br":
            return f"br({ast_pretty(node.left)}, {ast_pretty(node.right)})"
        prec, spelled = _BINARY[node.op]
        left = _wrap(node.left, prec, False)
        return left + spelled + _wrap(node.right, prec, True)
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _PREC_NEG, False)
    if isinstance(node, Pow):
        # right_side=True so a Pow base gets parentheses: the grammar allows
        # only one caret per power, so "(D^2)^3" must not print as "D^2^3"
        return f"{_wrap(node.base, _PREC_POW, True)}^{node.exponent}"
    if isinstance(node, Sum):
        return f"sum({', '.join(node.names)} : {ast_pretty(node.body)})"
    raise TypeError(f"not an AST node: {node!r}")
