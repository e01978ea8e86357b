"""Formula syntax trees, the surface parser, desugaring, and subformula enumeration."""

from __future__ import annotations

import operator
import re


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message, position):
        super().__init__("syntax error at position %d: %s" % (position, message))
        self.position = position


def _coalition(agents):
    if isinstance(agents, frozenset):
        return agents
    names = tuple(agents)
    if len(set(names)) != len(names):
        raise FormulaError("duplicate agent in coalition: %s" % (names,))
    return frozenset(names)


def _coalition_str(coalition):
    return ",".join(sorted(coalition))


class Formula:
    """Base class for all formula nodes. Nodes are immutable and compare structurally.

    Every node is a tag, a head (an atom's name or a coalition; empty for the
    other nodes) and its children; key() holds the three, children as nodes,
    and _rebuild() derives from them. Nodes never change after __init__: each
    builds its key and hash once.
    """

    tag = None
    _key = _hash = None

    def _head(self):
        return ()

    def children(self):
        return ()

    def key(self):
        if self._key is None:
            self._key = self._build_key()
        return self._key

    def _build_key(self):
        return (self.tag, *self._head(), *self.children())

    def _rebuild(self, children):
        """The same connective, with the same head, over new children."""
        return type(self)(*self._head(), *children)

    def __eq__(self, other):
        return isinstance(other, Formula) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, str(self))

    def __str__(self):
        return self._print(0)

    # Precedence levels: 0 = implication, 1 = or, 2 = and, 3 = unary/atomic.
    def _print(self, level):
        raise NotImplementedError


class Atom(Formula):
    tag = "atom"

    def __init__(self, name):
        if not name:
            raise FormulaError("empty atom name")
        self.name = name

    def _head(self):
        return (self.name,)

    def _print(self, level):
        return self.name


class _Constant(Formula):
    def _print(self, level):
        return self.tag


class TrueConst(_Constant):
    tag = "true"


class FalseConst(_Constant):
    tag = "false"


class Not(Formula):
    tag = "not"

    def __init__(self, operand):
        self.operand = operand

    def children(self):
        return (self.operand,)

    def _print(self, level):
        return "!" + self.operand._print(3)


class _Infix(Formula):
    """A propositional connective between two operands. It is parenthesized
    inside a tighter context; sides are the levels its operands print at."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def _print(self, level):
        text = "%s %s %s" % (self.left._print(self.sides[0]), self.op,
                             self.right._print(self.sides[1]))
        return "(" + text + ")" if level > self.precedence else text


class And(_Infix):
    op, tag, precedence, sides = "&", "and", 2, (2, 3)


class Or(_Infix):
    op, tag, precedence, sides = "|", "or", 1, (1, 2)


class Implies(_Infix):
    # -> is right associative; parenthesize a left operand that is itself an implication.
    op, tag, precedence, sides = "->", "implies", 0, (1, 0)


class _Coalitional(Formula):
    """A modal node: a coalition prefix over one or two operands."""

    bracket = "<%s>"

    def __init__(self, coalition):
        self.coalition = _coalition(coalition)

    def _head(self):
        return (self.coalition,)


class _Unary(_Coalitional):
    def __init__(self, coalition, operand):
        super().__init__(coalition)
        self.operand = operand

    def children(self):
        return (self.operand,)

    def _print(self, level):
        head = self.bracket % _coalition_str(self.coalition)
        return "%s%s %s" % (head, self.op, self.operand._print(3))


class _Binary(_Coalitional):
    def __init__(self, coalition, left, right):
        super().__init__(coalition)
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def _print(self, level):
        head = self.bracket % _coalition_str(self.coalition)
        return "%s(%s %s %s)" % (head, self.left._print(0), self.op, self.right._print(0))


class Know(_Unary):
    op, tag, bracket = "", "know", "K{%s}"


class Possible(_Unary):
    op, tag, bracket = "", "possible", "P{%s}"


class Next(_Unary):
    op, tag = "X", "next"


class Eventually(_Unary):
    op, tag = "F", "eventually"


class Globally(_Unary):
    op, tag = "G", "globally"


class Until(_Binary):
    op, tag = "U", "until"


class WeakUntil(_Binary):
    op, tag = "W", "weakuntil"


class DualNext(_Unary):
    op, tag, bracket = "X", "dualnext", "[%s]"


class DualEventually(_Unary):
    op, tag, bracket = "F", "dualeventually", "[%s]"


class DualGlobally(_Unary):
    op, tag, bracket = "G", "dualglobally", "[%s]"


class DualUntil(_Binary):
    op, tag, bracket = "U", "dualuntil", "[%s]"


class DualWeakUntil(_Binary):
    op, tag, bracket = "W", "dualweakuntil", "[%s]"


CORE_KINDS = (Atom, TrueConst, FalseConst, Not, And, Next, Until, WeakUntil, Know)


def _nodes(f):
    """Every node of the tree, a shared subtree once per occurrence."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


# ---------------------------------------------------------------------------
# Parser.  Grammar (ASCII surface syntax):
#   formula := impl
#   impl    := or ("->" impl)?
#   or      := and ("|" and)*
#   and     := unary ("&" unary)*
#   unary   := "!" unary | "K" "{" agents "}" unary | "P" "{" agents "}" unary
#            | "<" agents ">" tail | "[" agents "]" tail | atomish
#   tail    := "X" unary | "F" unary | "G" unary
#            | "(" formula ("U" | "W") formula ")"
#   atomish := "true" | "false" | IDENT | "(" formula ")"
#   agents  := IDENT ("," IDENT)*
# Unary operators bind tighter than &, then |, then ->. The parser reads each
# connective's spelling from its node class: op, the bracket and the tag.
# An identifier's tail: \w matches the characters isalnum() or == "_" accepts.
_WORD = re.compile(r"\w*")

# The deepest nesting parse_formula accepts. The parser and the passes over a
# formula tree (desugar, enumeration, hashing, printing) recurse a few frames
# per level, which this keeps well inside Python's default recursion limit.
MAX_DEPTH = 100


def _tokenize(text):
    """A (kind, text, position) tuple per token, the end token last."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "!&|<>[]{}(),":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha() or ch == "_":
            j = _WORD.match(text, i).end()
            tokens.append(("ident", text[i:j], i))
            i = j
        elif ch.isspace():
            i += 1
        elif text.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
        else:
            raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    INFIX = {cls.op: cls for cls in (Implies, Or, And)}
    # (prefix token, operator letter): the bracket's first character; K and P take no letter.
    MODAL = {(cls.bracket[0], cls.op): cls for cls in (
        Know, Possible, Next, Eventually, Globally, Until, WeakUntil,
        DualNext, DualEventually, DualGlobally, DualUntil, DualWeakUntil)}
    CLOSING = {cls.bracket[0]: cls.bracket[-1] for cls in MODAL.values()}
    CONSTANTS = {cls.tag: cls for cls in (TrueConst, FalseConst)}

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.index = 0
        # The current token; the parser never advances past the end token.
        self.tok = self.tokens[0]
        # Open impl and unary calls: each nested operand opens at least one.
        self.depth = 0

    def nest(self, parse, *args):
        """parse(*args) one nesting level deeper, at most MAX_DEPTH deep."""
        if self.depth == MAX_DEPTH:
            raise FormulaError("formula nests deeper than %d levels (at position %d)"
                               % (MAX_DEPTH, self.tok[2]))
        self.depth += 1
        f = parse(*args)
        self.depth -= 1
        return f

    def advance(self):
        """Step past the current token and return its text."""
        text = self.tok[1]
        self.index += 1
        self.tok = self.tokens[self.index]
        return text

    def fail(self, expected):
        _, text, position = self.tok
        raise ParseError("expected %s, found %r" % (expected, text or "end of input"), position)

    def expect(self, kind, what=None):
        if self.tok[0] != kind:
            self.fail(what or repr(kind))
        return self.advance()

    def parse(self):
        f = self.impl()
        if self.tok[0] != "end":
            raise ParseError("unexpected trailing input %r" % self.tok[1], self.tok[2])
        # A chain of & or | nests to the left without nesting calls. A tree's
        # depth, the most operators on a path from its root, is never more
        # than its token count.
        if len(self.tokens) > MAX_DEPTH:
            depth, nodes = -1, [f]
            while nodes:
                depth, nodes = depth + 1, [c for node in nodes for c in node.children()]
            if depth > MAX_DEPTH:
                raise FormulaError("formula nests %d levels deep, deeper than %d"
                                   % (depth, MAX_DEPTH))
        return f

    def impl(self, level=0):
        """Unary operands joined by the infix connectives of precedence level
        or tighter, by precedence climbing: a right operand binds as tight as
        its connective's right side, so -> associates to the right, & and |
        to the left."""
        f = self.unary()
        while (infix := self.INFIX.get(self.tok[0])) and infix.precedence >= level:
            self.advance()
            f = infix(f, self.nest(self.impl, infix.sides[1]))
        return f

    def unary(self):
        kind, prefix, _ = self.tok
        if kind == "!":
            self.advance()
            return Not(self.nest(self.unary))
        if (prefix, "") in self.MODAL and self.tokens[self.index + 1][0] == "{":
            self.advance()
        elif kind != "<" and kind != "[":
            return self.atomish()
        self.advance()
        names = [self.expect("ident", "agent name")]
        while self.tok[0] == ",":
            self.advance()
            names.append(self.expect("ident", "agent name"))
        self.expect(self.CLOSING[prefix])
        modal = self.MODAL.get((prefix, ""))
        if modal:
            return modal(names, self.nest(self.unary))
        binary = self.tok[0] == "("
        if binary:
            self.advance()
            left = self.nest(self.impl)
        modal = self.MODAL.get((prefix, self.tok[1]))
        if modal is None or issubclass(modal, _Binary) != binary:
            self.fail("'U' or 'W'" if binary else "'X', 'F', 'G' or '(' after coalition")
        self.advance()
        if not binary:
            return modal(names, self.nest(self.unary))
        right = self.nest(self.impl)
        self.expect(")")
        return modal(names, left, right)

    def atomish(self):
        kind, text, _ = self.tok
        if kind == "ident":
            self.advance()
            return self.CONSTANTS[text]() if text in self.CONSTANTS else Atom(text)
        if kind == "(":
            self.advance()
            f = self.nest(self.impl)
            self.expect(")")
            return f
        self.fail("a formula")


def parse_formula(text):
    """Parse the ASCII surface syntax into a Formula tree."""
    if not isinstance(text, str):
        raise FormulaError("formula text must be a string, not %s" % type(text).__name__)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Desugaring to the primitive connectives.


def desugar(f):
    """Rewrite to the core fragment: atoms, true, false, !, &, <A>X, <A>U, <A>W, K."""
    if isinstance(f, CORE_KINDS):
        children = f.children()
        core = [desugar(c) for c in children]
        # Nodes never change, so one over unchanged children is its own core form.
        return f if all(map(operator.is_, core, children)) else f._rebuild(core)
    if isinstance(f, Or):
        return Not(And(Not(desugar(f.left)), Not(desugar(f.right))))
    if isinstance(f, Implies):
        return Not(And(desugar(f.left), Not(desugar(f.right))))
    if isinstance(f, Possible):
        return Not(Know(f.coalition, Not(desugar(f.operand))))
    if isinstance(f, Eventually):
        return Until(f.coalition, TrueConst(), desugar(f.operand))
    if isinstance(f, Globally):
        return WeakUntil(f.coalition, desugar(f.operand), FalseConst())
    if isinstance(f, DualNext):
        return Not(Next(f.coalition, Not(desugar(f.operand))))
    if isinstance(f, (DualUntil, DualWeakUntil)):
        # [A](l U r) = !<A>(!r W (!r & !l)), and [A](l W r) = !<A>(!r U (!r & !l)).
        goal = WeakUntil if isinstance(f, DualUntil) else Until
        left = desugar(f.left)
        right = desugar(f.right)
        return Not(goal(f.coalition, Not(right), And(Not(right), Not(left))))
    if isinstance(f, DualEventually):
        return desugar(DualUntil(f.coalition, TrueConst(), f.operand))
    if isinstance(f, DualGlobally):
        return desugar(DualWeakUntil(f.coalition, f.operand, FalseConst()))
    raise FormulaError("cannot desugar node of type %s" % type(f).__name__)


# ---------------------------------------------------------------------------
# Subformula enumeration for the labeling driver.

FRESH_MARK = "#"


def fresh_prop(k):
    """Name of the fresh labeling prop for the k-th subformula (1-based)."""
    return "p%s%d" % (FRESH_MARK, k)


class SubformulaEntry:
    """One enumerated subformula: its tree, its fresh prop, and its reduced form chi."""

    def __init__(self, index, subformula, prop, chi):
        self.index = index
        self.formula = subformula
        self.prop = prop
        self.chi = chi

    def __repr__(self):
        return "SubformulaEntry(%d, %s, chi=%s)" % (self.index, self.formula, self.chi)


def enumerate_subformulas(f):
    """Enumerate subformulas of a core formula (desugar's output) in postorder,
    each occurring once, as a list of SubformulaEntry.

    chi_k is phi_k with every proper subformula replaced by its fresh atom, so each
    chi_k is a single connective over atoms and contains at most one modality.
    """
    entries = {}
    _enter(f, entries)
    return list(entries.values())


def _enter(node, entries):
    """node's entry, added to entries after its children's on first sight."""
    entry = entries.get(node)
    if entry is None:
        atoms = [Atom(_enter(c, entries).prop) for c in node.children()]
        k = len(entries) + 1
        entry = entries[node] = SubformulaEntry(k, node, fresh_prop(k), node._rebuild(atoms))
    return entry
