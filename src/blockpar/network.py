"""Boolean automata networks: expression locals, text format, block updates.

A network is ``n`` local functions, one per automaton, each an expression
tree over the variables ``x0..x(n-1)``.  Configurations are plain integers:
bit ``i`` of the integer is the state of automaton ``i``.  In the textual
form a configuration is a bitstring whose *leftmost* character is automaton 0.

``&``, ``|`` and ``^`` are n-ary chain nodes: ``a & b & c`` is one ``And``
with three operands, so a long chain is a flat tuple that parses, compares,
hashes and pickles at any length.  One walk, ``render(spelling)``, writes an
expression as network text, as a scalar lambda body and as a bit-plane lambda
body, with the fewest parentheses: Python ranks ``|``, ``^``, ``&`` as the
network text does, so chains of about 2,000 terms compile; CPython nests a
longer one too deeply to compile.  Text nested past the recursion limit, such
as deep parentheses, is a syntax error.
"""

from __future__ import annotations

import operator
import re
from functools import reduce
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

from .errors import NetworkSyntaxError, Record

if TYPE_CHECKING:
    import random

# Precedences, loosest to tightest; Python ranks ``|``, ``^``, ``&`` alike.
_PREC_OR, _PREC_XOR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5


class Spelling(Record):
    """How ``render`` writes a variable index, the constant 1 and a negated
    operand; the negation binds as tightly as ``negation_precedence``."""

    __slots__ = _fields = ("var", "one", "negation", "negation_precedence")


#: The network text format.
TEXT = Spelling("x{}", "1", "!{}", _PREC_NOT)
#: A Python expression over the configuration integer ``x``.
SCALAR = Spelling("(x>>{}&1)", "1", "{} ^ 1", _PREC_XOR)
#: A Python expression over the bit-planes ``p`` and the all-lanes mask ``m``.
PLANE = Spelling("p[{}]", "m", "{} ^ m", _PREC_XOR)


def _operand(expr: "Expr", spelling: Spelling, bound: int) -> str:
    """``expr`` rendered, parenthesised if it binds looser than ``bound``."""
    text = expr.render(spelling)
    precedence = spelling.negation_precedence if isinstance(expr, Not) else expr.precedence
    return f"({text})" if precedence < bound else text


class Var(Record):
    __slots__ = _fields = ("index",)

    precedence = _PREC_ATOM

    def evaluate(self, x: int) -> int:
        return (x >> self.index) & 1

    def render(self, spelling: Spelling) -> str:
        return spelling.var.format(self.index)

    def variables(self) -> frozenset[int]:
        return frozenset((self.index,))


class Const(Record):
    __slots__ = _fields = ("value",)

    precedence = _PREC_ATOM

    def evaluate(self, x: int) -> int:
        return self.value

    def render(self, spelling: Spelling) -> str:
        return spelling.one if self.value else "0"

    def variables(self) -> frozenset[int]:
        return frozenset()


class Not(Record):
    __slots__ = _fields = ("operand",)

    def evaluate(self, x: int) -> int:
        return self.operand.evaluate(x) ^ 1

    def render(self, spelling: Spelling) -> str:
        return spelling.negation.format(
            _operand(self.operand, spelling, spelling.negation_precedence))

    def variables(self) -> frozenset[int]:
        return self.operand.variables()


class _Chain(Record):
    """``operands`` joined left to right by one operator.

    A first operand of the same kind is absorbed, so ``And(And(a, b), c)`` is
    ``And(a, b, c)``; a later one stays its own node, as in ``a & (b & c)``.
    """

    __slots__ = _fields = ("operands",)

    def __init__(self, first: "Expr", second: "Expr", *rest: "Expr"):
        head = first.operands if type(first) is type(self) else (first,)
        object.__setattr__(self, "operands", (*head, second, *rest))

    def __reduce__(self):
        return (type(self), self.operands)

    def evaluate(self, x: int) -> int:
        return reduce(self.op, (e.evaluate(x) for e in self.operands))

    def render(self, spelling: Spelling) -> str:
        # A later operand of the same precedence keeps its parentheses.
        first, *rest = self.operands
        parts = [_operand(first, spelling, self.precedence)]
        parts.extend(_operand(e, spelling, self.precedence + 1) for e in rest)
        return f" {self.symbol} ".join(parts)

    def variables(self) -> frozenset[int]:
        return frozenset().union(*(e.variables() for e in self.operands))


class And(_Chain):
    __slots__ = ()
    symbol = "&"
    precedence = _PREC_AND
    op = operator.and_


class Or(_Chain):
    __slots__ = ()
    symbol = "|"
    precedence = _PREC_OR
    op = operator.or_


class Xor(_Chain):
    __slots__ = ()
    symbol = "^"
    precedence = _PREC_XOR
    op = operator.xor


Expr = Union[Var, Const, Not, And, Or, Xor]


def and_chain(exprs: Iterable[Expr]) -> Expr:
    """Conjunction of ``exprs`` as one node; the empty chain is constant 1."""
    exprs = tuple(exprs)
    if len(exprs) < 2:
        return exprs[0] if exprs else Const(1)
    return And(*exprs)


class BooleanNetwork:
    """``n`` expression locals over ``n`` automata.  Immutable after creation."""

    __slots__ = ("n", "locals", "_compiled", "_sliced")

    def __init__(self, locals_: Iterable[Expr]):
        self.locals = tuple(locals_)
        self.n = len(self.locals)
        if self.n == 0:
            raise ValueError("a network needs at least one automaton")
        for i, expr in enumerate(self.locals):
            try:
                used = expr.variables()
            except RecursionError:
                raise ValueError(f"local function {i} is nested too deeply") from None
            bad = [v for v in used if v >= self.n]
            if bad:
                raise ValueError(
                    f"local function {i} references x{min(bad)} but n={self.n}"
                )
        self._compiled = None
        self._sliced = None

    def compiled(self) -> tuple[Callable[[int], int], ...]:
        """Locals compiled to bitmask lambdas ``(x)``; built once, cached."""
        if self._compiled is None:
            self._compiled = self._lambdas("x", SCALAR)
        return self._compiled

    def sliced(self) -> tuple[Callable[[list[int], int], int], ...]:
        """Locals compiled to bit-plane lambdas ``(p, m)``; built once, cached.

        Lane ``k`` of plane ``p[i]`` is automaton ``i`` in the ``k``-th
        configuration of a batch; ``m`` has every lane set.
        """
        if self._sliced is None:
            self._sliced = self._lambdas("p, m", PLANE)
        return self._sliced

    def _lambdas(self, params: str, spelling: Spelling) -> tuple[Callable, ...]:
        compiled = []
        for i, expr in enumerate(self.locals):
            try:
                compiled.append(eval(f"lambda {params}: {expr.render(spelling)}"))
            except RecursionError:
                raise ValueError(
                    f"a local function is nested too deeply to compile (local function {i})"
                ) from None
        return tuple(compiled)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BooleanNetwork):
            return NotImplemented
        return self.locals == other.locals

    def __hash__(self) -> int:
        return hash(self.locals)

    def __repr__(self) -> str:
        return f"BooleanNetwork({self.n} automata)"

    def __reduce__(self):
        return (BooleanNetwork, (self.locals,))


def identity_network(n: int) -> BooleanNetwork:
    return BooleanNetwork(Var(i) for i in range(n))


def eval_local(f: BooleanNetwork, i: int, x: int) -> int:
    """Value of local function ``i`` at configuration ``x``."""
    if not 0 <= i < f.n:
        raise IndexError(f"automaton {i} out of range for n={f.n}")
    return f.compiled()[i](x)


def update_block(f: BooleanNetwork, block: Iterable[int], x: int) -> int:
    """Simultaneously update the automata in ``block``; all locals read ``x``."""
    compiled = f.compiled()
    out = x
    updated = False
    for i in block:
        if not 0 <= i < f.n:
            raise IndexError(f"automaton {i} out of range for n={f.n}")
        updated = True
        if compiled[i](x):
            out |= 1 << i
        else:
            out &= ~(1 << i)
    if not updated:
        raise ValueError("update block must be non-empty")
    return out


# ---------------------------------------------------------------------------
# Configurations

def parse_config(text: str, n: Optional[int] = None) -> int:
    """Bitstring to configuration; leftmost character is automaton 0."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"configuration must match [01]+, got {text!r}")
    if n is not None and len(text) != n:
        raise ValueError(f"configuration {text!r} has length {len(text)}, expected {n}")
    value = 0
    for i, c in enumerate(text):
        if c == "1":
            value |= 1 << i
    return value


def format_config(x: int, n: int) -> str:
    """Configuration to bitstring; automaton 0 leftmost."""
    return format(x & ((1 << n) - 1), f"0{n}b")[::-1]


def format_configs(xs: Sequence[int], n: int) -> str:
    """The bitstrings of ``xs``, configurations of ``n`` automata, one per
    line, without a final newline."""
    # Reversing the joined text puts automaton 0 first in every line and the
    # lines back in order.
    return "\n".join(map(format, reversed(xs), repeat(f"0{n}b")))[::-1]


# ---------------------------------------------------------------------------
# Network text format

_TOKEN = re.compile(r"x(\d+)|([01])|([!&^|()=])|(\S)")


def _tokenize(line: str, lineno: int) -> list[tuple[str, object, int]]:
    tokens = []
    for match in _TOKEN.finditer(line):
        col = match.start() + 1
        if match.group(1) is not None:
            tokens.append(("var", int(match.group(1)), col))
        elif match.group(2) is not None:
            tokens.append(("const", int(match.group(2)), col))
        elif match.group(3) is not None:
            tokens.append((match.group(3), match.group(3), col))
        else:
            raise NetworkSyntaxError(
                f"unexpected character {match.group(4)!r}", lineno, col
            )
    return tokens


#: The chain operators, loosest first; ``!`` binds tighter than all of them.
_CHAINS = (Or, Xor, And)


class _ExprParser:
    """Recursive descent over one line of tokens; ``|`` loosest, ``!`` tightest."""

    def __init__(self, tokens, lineno: int, line_length: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.end_col = line_length + 1

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, message: str):
        token = self._peek()
        col = token[2] if token else self.end_col
        raise NetworkSyntaxError(message, self.lineno, col)

    def _accept(self, kind: str) -> bool:
        token = self._peek()
        if token and token[0] == kind:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expr:
        expr = self._chain()
        if self._peek() is not None:
            self._fail(f"unexpected {self._peek()[1]!r} after expression")
        return expr

    def _chain(self, level: int = 0) -> Expr:
        """Operands one level tighter, joined by ``_CHAINS[level].symbol``."""
        kind = _CHAINS[level]
        innermost = level + 1 == len(_CHAINS)
        operands = []
        while not operands or self._accept(kind.symbol):
            operands.append(self._unary() if innermost else self._chain(level + 1))
        return kind(*operands) if len(operands) > 1 else operands[0]

    def _unary(self) -> Expr:
        if self._accept("!"):
            return Not(self._unary())
        return self._atom()

    def _atom(self) -> Expr:
        token = self._peek()
        if token is None:
            self._fail("expected expression")
        kind, value, _ = token
        if kind == "var":
            self.pos += 1
            return Var(value)
        if kind == "const":
            self.pos += 1
            return Const(value)
        if kind == "(":
            self.pos += 1
            expr = self._chain()
            if not self._accept(")"):
                self._fail("expected ')'")
            return expr
        self._fail(f"expected expression, found {value!r}")


_HEADER = re.compile(r"^\s*n\s*=\s*(\d+)\s*$")


def parse_network(text: str) -> BooleanNetwork:
    """Parse the network text format.

    One ``x<i> = <expr>`` assignment per line; ``#`` starts a comment; an
    optional ``n=<int>`` header (before any assignment) fixes the size.
    Unassigned automata default to the identity ``x<i>``.  Without a header,
    ``n`` is one more than the largest index mentioned.
    """
    assignments: dict[int, Expr] = {}
    assignment_lines: dict[int, int] = {}
    # The largest index on each assignment's line, target included.
    highest: dict[int, int] = {}
    declared_n: Optional[int] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        header = _HEADER.match(line)
        if header:
            if assignments:
                raise NetworkSyntaxError(
                    "size header must come before assignments", lineno, 1
                )
            if declared_n is not None:
                raise NetworkSyntaxError("duplicate size header", lineno, 1)
            declared_n = int(header.group(1))
            if declared_n < 1:
                raise NetworkSyntaxError("size must be positive", lineno, 1)
            continue
        tokens = _tokenize(line, lineno)
        if not tokens or tokens[0][0] != "var":
            col = tokens[0][2] if tokens else 1
            raise NetworkSyntaxError("expected 'x<i> =' assignment", lineno, col)
        target = tokens[0][1]
        if len(tokens) < 2 or tokens[1][0] != "=":
            col = tokens[1][2] if len(tokens) > 1 else len(line) + 1
            raise NetworkSyntaxError("expected '=' after assignment target", lineno, col)
        if target in assignments:
            raise NetworkSyntaxError(
                f"duplicate assignment to x{target}"
                f" (first assigned on line {assignment_lines[target]})",
                lineno, tokens[0][2],
            )
        try:
            expr = _ExprParser(tokens[2:], lineno, len(line)).parse()
            highest[target] = max(expr.variables() | {target})
        except RecursionError:
            raise NetworkSyntaxError("expression nested too deeply", lineno) from None
        assignments[target] = expr
        assignment_lines[target] = lineno

    max_index = max(highest.values(), default=-1)
    if declared_n is None and max_index < 0:
        raise NetworkSyntaxError("network text contains no assignments and no header")
    n = declared_n if declared_n is not None else max_index + 1
    if max_index >= n:
        first = min(i for i, top in highest.items() if top >= n)
        raise NetworkSyntaxError(
            f"index x{max_index} out of range for declared n={n}",
            assignment_lines[first], 1,
        )
    locals_ = [assignments.get(i, Var(i)) for i in range(n)]
    return BooleanNetwork(locals_)


def serialize_network(f: BooleanNetwork) -> str:
    """Canonical text for a network: explicit header and every assignment."""
    lines = [f"n={f.n}"]
    lines.extend(f"x{i} = {expr.render(TEXT)}" for i, expr in enumerate(f.locals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Seeded random networks for property sweeps

def random_expression(n: int, rng: random.Random, depth: int = 4) -> Expr:
    """Uniform pick over node kinds, leaves forced at depth 0."""
    if depth <= 0:
        if rng.random() < 0.8:
            return Var(rng.randrange(n))
        return Const(rng.randrange(2))
    kind = rng.randrange(6)
    if kind == 0:
        return Var(rng.randrange(n))
    if kind == 1:
        return Const(rng.randrange(2))
    if kind == 2:
        return Not(random_expression(n, rng, depth - 1))
    left = random_expression(n, rng, depth - 1)
    right = random_expression(n, rng, depth - 1)
    if kind == 3:
        return And(left, right)
    if kind == 4:
        return Or(left, right)
    return Xor(left, right)


def random_network(n: int, rng: random.Random, depth: int = 4) -> BooleanNetwork:
    """A network of bounded-depth random expression locals."""
    return BooleanNetwork(random_expression(n, rng, depth) for _ in range(n))
