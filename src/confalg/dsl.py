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
"""

from dataclasses import dataclass

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

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str
    indices: tuple  # ints and/or index-variable names


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
# operators that multiply their operands.
_BINARY = {
    "+": (_PREC_ADD, " + "),
    "-": (_PREC_ADD, " - "),
    "*": (_PREC_MUL, "*"),
    ".": (_PREC_MUL, " . "),
    "/": (_PREC_MUL, "/"),
    "br": (_PREC_ATOM, None),
}
_PRODUCTS = ("*", ".", "br")


@dataclass(frozen=True)
class Bin:
    """left op right, for each op in _BINARY."""
    op: str
    left: object
    right: object

    def __post_init__(self):
        if self.op not in _BINARY:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Sum:
    names: tuple
    body: object


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

_PUNCT = "+-*./^()[],:"


@dataclass(slots=True)
class _Token:
    kind: str  # "int", "name", or the punctuation character itself
    text: str
    line: int
    col: int


def _tokenize(src):
    out = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":  # not str.isdigit(), which accepts '²'
            j = i
            while j < n and "0" <= src[j] <= "9":
                j += 1
            out.append(_Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(_Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            out.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("end", "", line, col))
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.peek()
        if t.kind != kind:
            raise DslSyntaxError(
                f"expected {what}, found {_shown(t)!r}", t.line, t.col
            )
        return self.next()

    def separated(self, close, where):
        """Yield once per item of "item (',' item)* close".

        The caller's loop body parses one item; this consumes the ',' after
        it, or the close, which ends the loop.
        """
        while True:
            yield
            t = self.next()
            if t.kind == close:
                return
            if t.kind != ",":
                raise DslSyntaxError(
                    f"expected ',' or '{close}' in {where}", t.line, t.col
                )

    def parse_expr(self):
        return self.parse_infix(("+", "-"), self.parse_term)

    def parse_term(self):
        return self.parse_infix(("*", ".", "/"), self.parse_unary)

    def parse_infix(self, ops, operand):
        """operand ((op in ops) operand)*, associated left."""
        node = operand()
        while self.peek().kind in ops:
            node = Bin(self.next().kind, node, operand())
        return node

    def parse_unary(self):
        if self.peek().kind == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_primary()
        if self.peek().kind == "^":
            caret = self.next()
            t = self.expect("int", "a positive integer exponent")
            n = int(t.text)
            if n < 1:
                raise DslSyntaxError(
                    "exponent must be a positive integer", caret.line, caret.col
                )
            node = Pow(node, n)
        return node

    def parse_primary(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Num(int(t.text))
        if t.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        if t.kind == "name":
            if t.text == "br":
                return self.parse_br()
            if t.text == "sum":
                return self.parse_sum()
            return self.parse_symbol()
        raise DslSyntaxError(
            f"expected an expression, found {_shown(t)!r}", t.line, t.col
        )

    def parse_br(self):
        self.next()  # "br"
        self.expect("(", "'(' after br")
        a = self.parse_expr()
        self.expect(",", "',' between bracket arguments")
        b = self.parse_expr()
        self.expect(")", "')'")
        return Bin("br", a, b)

    def parse_sum(self):
        self.next()  # "sum"
        self.expect("(", "'(' after sum")
        names = []
        for _ in self.separated(":", "sum variable list"):
            t = _index_name(self.expect("name", "an index variable name"))
            if t.text in names:
                raise DslSyntaxError(
                    f"duplicate summation variable {t.text!r}", t.line, t.col
                )
            names.append(t.text)
        body = self.parse_expr()
        self.expect(")", "')'")
        return Sum(tuple(names), body)

    def parse_symbol(self):
        t = self.next()
        name = t.text
        if name not in SYMBOL_ARITY:
            raise UnknownSymbol(
                f"unknown symbol {name!r} (line {t.line}, column {t.col})"
            )
        arity = SYMBOL_ARITY[name]
        indices = []
        if self.peek().kind == "[":
            self.next()
            for _ in self.separated("]", "index list"):
                nt = self.next()
                if nt.kind == "int":
                    indices.append(int(nt.text))
                elif nt.kind == "name":
                    indices.append(_index_name(nt).text)
                else:
                    raise DslSyntaxError(
                        f"expected an index, found {_shown(nt)!r}", nt.line, nt.col
                    )
        if len(indices) != arity:
            raise ArityError(
                f"{name} takes {arity} index(es), got {len(indices)} "
                f"(line {t.line}, column {t.col})"
            )
        return Sym(name, tuple(indices))


def _shown(t):
    """How an error message names token t."""
    return "end of input" if t.kind == "end" else t.text


def _index_name(t):
    """Name token t, which must not spell a symbol or a keyword."""
    if t.text in SYMBOL_ARITY or t.text in ("br", "sum"):
        raise DslSyntaxError(
            f"{t.text!r} cannot be used as an index variable", t.line, t.col
        )
    return t


def parse(src):
    """Parse one expression; errors carry the 1-based line and column."""
    p = _Parser(_tokenize(src))
    node = p.parse_expr()
    tail = p.peek()
    if tail.kind != "end":
        raise DslSyntaxError(
            f"unexpected trailing input {tail.text!r}", tail.line, tail.col
        )
    return node


# ---------------------------------------------------------------------------
# elaboration
# ---------------------------------------------------------------------------

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
    other sum runs its tuples in declared order. An operand that is not
    skippable at some binding is reached there, so errors surface as a
    plain tree walk's do.
    A "/" whose numerator is zero returns it without inverting a nonzero
    divisor; a zero or non-scalar divisor still raises.
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
    while (chained and isinstance(factors[0], Bin)
           and factors[0].op in _PRODUCTS):
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
    if isinstance(node, Num):
        return alg.scalar(node.value)
    if isinstance(node, Sym):
        vals = _resolve(node.indices, scope)
        _check_range(node.name, vals)
        return _SYMBOLS[node.name][1](obs, vals)
    if isinstance(node, Sum):
        plan = _binding_plan(node, scope)
        return _bind(0, 0, None, alg.zero(), plan, dict(scope), obs, budget)
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
        left = _elaborate(node.left, scope, obs, budget)
        if op in _PRODUCTS:
            if left.is_zero() and _safe(node.right, scope):
                return left
            right = _elaborate(node.right, scope, obs, budget)
            return _link(alg, op, left, right, budget)
        right = _elaborate(node.right, scope, obs, budget)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        c = _as_coefficient(right)
        # Q is not a square, so every nonzero element of Q(P)[M] is invertible
        if left.is_zero() and not c.is_zero():
            return left
        return left.scale(c.inv())
    raise TypeError(f"not an AST node: {node!r}")


def _link(alg, op, left, right, budget):
    """The product op ("*", "." or br) names, of left and right, in budget."""
    check_budget(budget, left, right)
    if op == "*":
        return alg.mul(left, right)
    if op == ".":
        return alg.dot(left, right)
    return alg.bracket(left, right)


def _bind(level, k, prefix, total, plan, scope, obs, budget):
    """total plus the sum's terms over the names from order[level] on.

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
            return total
        k += 1
    if level == len(order):
        return total + prefix
    name = order[level]
    for v in index_range(name):
        scope[name] = v
        total = _bind(level + 1, k, prefix, total, plan, scope, obs, budget)
    return total


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
