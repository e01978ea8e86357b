"""Formula syntax trees, the surface parser, desugaring, and subformula enumeration."""

from __future__ import annotations


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message, position):
        super().__init__("syntax error at position %d: %s" % (position, message))
        self.position = position


def _coalition(agents):
    names = tuple(agents)
    if len(set(names)) != len(names):
        raise FormulaError("duplicate agent in coalition: %s" % (names,))
    return frozenset(names)


def _coalition_str(coalition):
    return ",".join(sorted(coalition))


class Formula:
    """Base class for all formula nodes. Nodes are immutable and compare structurally.

    Every node is a tag, a head (an atom's name or a coalition; empty for the
    other nodes) and its children; key() and _rebuild() derive from those.
    """

    tag = None

    def _head(self):
        return ()

    def children(self):
        return ()

    def key(self):
        return (self.tag,) + self._head() + tuple(c.key() for c in self.children())

    def _rebuild(self, children):
        """The same connective, with the same head, over new children."""
        return type(self)(*self._head(), *children)

    def __eq__(self, other):
        return isinstance(other, Formula) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

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
# Unary operators bind tighter than &, then |, then ->.

class _Token:
    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", i))
            i += 2
            continue
        if ch in "!&|<>[]{}(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("expected %s, found %r" % (what, tok.text or "end of input"), tok.pos)
        return self.advance()

    def parse(self):
        f = self.impl()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input %r" % tok.text, tok.pos)
        return f

    def impl(self):
        left = self.disj()
        if self.peek().kind == "->":
            self.advance()
            return Implies(left, self.impl())
        return left

    def disj(self):
        f = self.conj()
        while self.peek().kind == "|":
            self.advance()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek().kind == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def agents(self, closing, what):
        names = [self.expect("ident", "agent name").text]
        while self.peek().kind == ",":
            self.advance()
            names.append(self.expect("ident", "agent name").text)
        self.expect(closing, what)
        return names

    def unary(self):
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text in ("K", "P") and self.tokens[self.index + 1].kind == "{":
            self.advance()
            self.advance()
            names = self.agents("}", "'}'")
            operand = self.unary()
            return Know(names, operand) if tok.text == "K" else Possible(names, operand)
        if tok.kind == "<":
            self.advance()
            names = self.agents(">", "'>'")
            return self.tail(names, dual=False)
        if tok.kind == "[":
            self.advance()
            names = self.agents("]", "']'")
            return self.tail(names, dual=True)
        return self.atomish()

    def tail(self, names, dual):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("X", "F", "G"):
            self.advance()
            table = {
                ("X", False): Next, ("F", False): Eventually, ("G", False): Globally,
                ("X", True): DualNext, ("F", True): DualEventually, ("G", True): DualGlobally,
            }
            return table[(tok.text, dual)](names, self.unary())
        if tok.kind == "(":
            self.advance()
            left = self.impl()
            op = self.peek()
            if op.kind != "ident" or op.text not in ("U", "W"):
                raise ParseError("expected 'U' or 'W', found %r" % (op.text or "end of input"), op.pos)
            self.advance()
            right = self.impl()
            self.expect(")", "')'")
            if op.text == "U":
                return (DualUntil if dual else Until)(names, left, right)
            return (DualWeakUntil if dual else WeakUntil)(names, left, right)
        raise ParseError(
            "expected 'X', 'F', 'G' or '(' after coalition, found %r" % (tok.text or "end of input"),
            tok.pos)

    def atomish(self):
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            if tok.text == "true":
                return TrueConst()
            if tok.text == "false":
                return FalseConst()
            return Atom(tok.text)
        if tok.kind == "(":
            self.advance()
            f = self.impl()
            self.expect(")", "')'")
            return f
        raise ParseError("expected a formula, found %r" % (tok.text or "end of input"), tok.pos)


def parse_formula(text):
    """Parse the ASCII surface syntax into a Formula tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Desugaring to the primitive connectives.


def desugar(f):
    """Rewrite to the core fragment: atoms, true, false, !, &, <A>X, <A>U, <A>W, K."""
    if isinstance(f, CORE_KINDS):
        return f._rebuild([desugar(c) for c in f.children()])
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
    if node not in entries:
        atoms = [Atom(_enter(c, entries).prop) for c in node.children()]
        k = len(entries) + 1
        entries[node] = SubformulaEntry(k, node, fresh_prop(k), node._rebuild(atoms))
    return entries[node]


def atom_names(f):
    """All atom names occurring in the tree."""
    return {node.name for node in _nodes(f) if isinstance(node, Atom)}


def coalitions(f):
    """All coalitions occurring in the tree."""
    return {node.coalition for node in _nodes(f) if isinstance(node, _Coalitional)}
