"""Parsing, printing, desugaring, and subformula enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

import atldk.formula as fm
from atldk import FormulaError, ParseError, parse_formula
from atldk.formula import desugar, enumerate_subformulas
from oracles import chi_failures, is_core


def A(*names):
    return frozenset(names)


class TestParse:
    def test_example_until(self):
        f = parse_formula("<Alice,Bob>(valid U (c & s))")
        assert f == fm.Until(["Alice", "Bob"], fm.Atom("valid"),
                             fm.And(fm.Atom("c"), fm.Atom("s")))

    def test_bare_atom(self):
        assert parse_formula("p") == fm.Atom("p")

    def test_knowledge_of_negation(self):
        assert parse_formula("K{a} !p") == fm.Know(["a"], fm.Not(fm.Atom("p")))

    def test_constants(self):
        assert parse_formula("true") == fm.TrueConst()
        assert parse_formula("false") == fm.FalseConst()

    def test_precedence_chain(self):
        f = parse_formula("p -> q | r & !s")
        assert f == fm.Implies(
            fm.Atom("p"),
            fm.Or(fm.Atom("q"), fm.And(fm.Atom("r"), fm.Not(fm.Atom("s")))))

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("p & q | r") == fm.Or(
            fm.And(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))

    def test_and_left_associative(self):
        assert parse_formula("p & q & r") == fm.And(
            fm.And(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))

    def test_implies_right_associative(self):
        assert parse_formula("p -> q -> r") == fm.Implies(
            fm.Atom("p"), fm.Implies(fm.Atom("q"), fm.Atom("r")))

    def test_unary_binds_tightest(self):
        assert parse_formula("!p & q") == fm.And(fm.Not(fm.Atom("p")), fm.Atom("q"))
        assert parse_formula("K{a} p & q") == fm.And(
            fm.Know(["a"], fm.Atom("p")), fm.Atom("q"))

    def test_coalition_modalities(self):
        assert parse_formula("<a>X p") == fm.Next(["a"], fm.Atom("p"))
        assert parse_formula("<a>F p") == fm.Eventually(["a"], fm.Atom("p"))
        assert parse_formula("<a>G p") == fm.Globally(["a"], fm.Atom("p"))
        assert parse_formula("<a,b>(p W q)") == fm.WeakUntil(
            ["a", "b"], fm.Atom("p"), fm.Atom("q"))

    def test_dual_modalities(self):
        assert parse_formula("[a]X p") == fm.DualNext(["a"], fm.Atom("p"))
        assert parse_formula("[a]F p") == fm.DualEventually(["a"], fm.Atom("p"))
        assert parse_formula("[a]G p") == fm.DualGlobally(["a"], fm.Atom("p"))
        assert parse_formula("[a](p U q)") == fm.DualUntil(
            ["a"], fm.Atom("p"), fm.Atom("q"))
        assert parse_formula("[a](p W q)") == fm.DualWeakUntil(
            ["a"], fm.Atom("p"), fm.Atom("q"))

    def test_possible(self):
        assert parse_formula("P{a,b} p") == fm.Possible(["a", "b"], fm.Atom("p"))

    def test_whitespace_insensitive(self):
        dense = parse_formula("<a,b>(p U(q&r))")
        spaced = parse_formula("  < a , b > ( p U ( q & r ) )  ")
        assert dense == spaced

    def test_keyword_letters_are_atoms_outside_their_context(self):
        assert parse_formula("K") == fm.Atom("K")
        assert parse_formula("X & U") == fm.And(fm.Atom("X"), fm.Atom("U"))
        assert parse_formula("K & P") == fm.And(fm.Atom("K"), fm.Atom("P"))

    def test_until_tail_accepts_operator_named_atoms(self):
        f = parse_formula("<a>(U U W)")
        assert f == fm.Until(["a"], fm.Atom("U"), fm.Atom("W"))


class TestParseErrors:
    def test_dangling_conjunction(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p &")
        assert err.value.position == 3

    def test_empty_coalition_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("K{} p")
        with pytest.raises(ParseError):
            parse_formula("<>X p")

    def test_missing_until_operator(self):
        with pytest.raises(ParseError):
            parse_formula("<a>(p q)")

    def test_until_requires_parenthesized_tail(self):
        with pytest.raises(ParseError):
            parse_formula("<a>p U q")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_formula("(p & q")

    def test_reserved_character_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("p#1")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p q")
        assert err.value.position == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("")

    def test_duplicate_coalition_member(self):
        with pytest.raises(FormulaError):
            parse_formula("<a,a>X p")

    def test_position_is_an_offset_into_the_text(self):
        text = "p & (q | )"
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert text[err.value.position] == ")"

    @pytest.mark.parametrize("text,position,message", [
        ("p#1", 1, "unexpected character '#'"),
        ("²p", 0, "unexpected character '²'"),
        ("p - q", 2, "unexpected character '-'"),
        ("p q", 2, "unexpected trailing input 'q'"),
        ("K{} p", 2, "expected agent name, found '}'"),
        ("<>X p", 1, "expected agent name, found '>'"),
        ("K{a,}p", 4, "expected agent name, found '}'"),
        ("K{a p", 4, "expected '}', found 'p'"),
        ("<a X p", 3, "expected '>', found 'X'"),
        ("[a X p", 3, "expected ']', found 'X'"),
        ("<a>p U q", 3, "expected 'X', 'F', 'G' or '(' after coalition, found 'p'"),
        ("[a]", 3, "expected 'X', 'F', 'G' or '(' after coalition, found 'end of input'"),
        ("<a>(p q)", 6, "expected 'U' or 'W', found 'q'"),
        ("<a>(p", 5, "expected 'U' or 'W', found 'end of input'"),
        ("<a>(p U q", 9, "expected ')', found 'end of input'"),
        ("(p & q", 6, "expected ')', found 'end of input'"),
        ("p & (q | )", 9, "expected a formula, found ')'"),
        ("p -> ->", 5, "expected a formula, found '->'"),
        ("p &", 3, "expected a formula, found 'end of input'"),
        ("K{a}", 4, "expected a formula, found 'end of input'"),
        ("", 0, "expected a formula, found 'end of input'"),
    ])
    def test_message_and_position(self, text, position, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert err.value.position == position
        assert str(err.value) == "syntax error at position %d: %s" % (position, message)

    @pytest.mark.parametrize("text", [b"p", 5, None, ["p"]])
    def test_text_that_is_not_a_string(self, text):
        with pytest.raises(FormulaError) as err:
            parse_formula(text)
        assert type(err.value) is FormulaError
        assert str(err.value) == "formula text must be a string, not %s" % type(text).__name__


class TestNestingDepth:
    """Formulas nest at most fm.MAX_DEPTH operators deep, however they nest:
    operands of prefix operators, parentheses, right operands, and & or |
    chains, which nest to the left. One level deeper is a FormulaError, not
    a RecursionError, and a formula at the limit desugars, enumerates,
    hashes and prints."""

    D = fm.MAX_DEPTH

    @pytest.mark.parametrize("text,deeper", [
        ("!" * D + "p", "!" * (D + 1) + "p"),
        ("(" * D + "p" + ")" * D, "(" * (D + 1) + "p" + ")" * (D + 1)),
        ("<a>X " * D + "p", "!" + "<a>X " * D + "p"),
        ("<a>(p U " * D + "q" + ")" * D, "!" + "<a>(p U " * D + "q" + ")" * D),
        ("p -> " * D + "q", "p -> " * (D + 1) + "q"),
        (" & ".join(["p"] * (D + 1)), " & ".join(["p"] * (D + 2))),
    ])
    def test_the_limit_parses_and_one_more_is_rejected(self, text, deeper):
        f = parse_formula(text)
        entries = enumerate_subformulas(desugar(f))
        assert parse_formula(str(f)) == f and hash(f) == hash(parse_formula(text))
        assert entries[-1].formula == desugar(f)
        with pytest.raises(FormulaError, match=r"^formula nests .*\b%d\b" % self.D):
            parse_formula(deeper)

    def test_message_names_the_depth(self):
        with pytest.raises(FormulaError) as err:
            parse_formula("!" * 1000 + "s")
        assert str(err.value) == "formula nests deeper than %d levels (at position %d)" % (
            self.D, self.D + 1)
        with pytest.raises(FormulaError) as err:
            parse_formula(" | ".join(["s"] * 1000))
        assert str(err.value) == "formula nests 999 levels deep, deeper than %d" % self.D


class TestPrinting:
    def test_redundant_parens_dropped(self):
        assert str(parse_formula("((p & q))")) == "p & q"

    def test_needed_parens_kept(self):
        f = parse_formula("(p | q) & r")
        assert parse_formula(str(f)) == f
        assert str(f) == "(p | q) & r"

    def test_coalition_printed_sorted(self):
        assert str(parse_formula("<Bob,Alice>X p")) == "<Alice,Bob>X p"

    P, Q, R = fm.Atom("p"), fm.Atom("q"), fm.Atom("r")
    GOLDEN = [
        (fm.Atom("valid"), "valid"),
        (fm.TrueConst(), "true"),
        (fm.FalseConst(), "false"),
        (fm.Not(P), "!p"),
        (fm.And(P, Q), "p & q"),
        (fm.Or(P, Q), "p | q"),
        (fm.Implies(P, Q), "p -> q"),
        (fm.Know(["a"], P), "K{a} p"),
        (fm.Possible(["a"], P), "P{a} p"),
        (fm.Next(["a"], P), "<a>X p"),
        (fm.Eventually(["a"], P), "<a>F p"),
        (fm.Globally(["a"], P), "<a>G p"),
        (fm.Until(["a"], P, Q), "<a>(p U q)"),
        (fm.WeakUntil(["a"], P, Q), "<a>(p W q)"),
        (fm.DualNext(["a"], P), "[a]X p"),
        (fm.DualEventually(["a"], P), "[a]F p"),
        (fm.DualGlobally(["a"], P), "[a]G p"),
        (fm.DualUntil(["a"], P, Q), "[a](p U q)"),
        (fm.DualWeakUntil(["a"], P, Q), "[a](p W q)"),
        # -> nests to the right, so a left operand needs parentheses.
        (fm.Implies(fm.Implies(P, Q), R), "(p -> q) -> r"),
        (fm.Implies(P, fm.Implies(Q, R)), "p -> q -> r"),
        (fm.And(fm.Or(P, Q), R), "(p | q) & r"),
        (fm.And(P, fm.Or(Q, R)), "p & (q | r)"),
        (fm.Or(fm.And(P, Q), R), "p & q | r"),
        (fm.And(P, fm.And(Q, R)), "p & (q & r)"),
        (fm.Not(fm.And(P, Q)), "!(p & q)"),
        (fm.Not(fm.Implies(P, Q)), "!(p -> q)"),
        (fm.Know(["a"], fm.And(P, Q)), "K{a} (p & q)"),
        (fm.Until(["a"], fm.Implies(P, Q), fm.Or(Q, R)), "<a>(p -> q U q | r)"),
        (fm.Know(["b", "Alice", "a"], P), "K{Alice,a,b} p"),
        (fm.Possible(["b", "Alice", "a"], P), "P{Alice,a,b} p"),
        (fm.Next(["b", "Alice", "a"], P), "<Alice,a,b>X p"),
        (fm.DualNext(["b", "Alice", "a"], P), "[Alice,a,b]X p"),
    ]

    @pytest.mark.parametrize("f,text", GOLDEN, ids=[text for _, text in GOLDEN])
    def test_golden(self, f, text):
        assert str(f) == text
        assert parse_formula(text) == f


names = st.sampled_from(["p", "q", "valid", "r_2", "X", "U", "K"])
coalitions = st.lists(st.sampled_from(["a", "b", "Alice"]),
                      min_size=1, max_size=3, unique=True)
leaves = st.one_of(
    st.builds(fm.Atom, names),
    st.builds(fm.TrueConst),
    st.builds(fm.FalseConst),
)


def _compound(children):
    unary = [fm.Not]
    coalitional_unary = [fm.Know, fm.Possible, fm.Next, fm.Eventually,
                         fm.Globally, fm.DualNext, fm.DualEventually, fm.DualGlobally]
    binary = [fm.And, fm.Or, fm.Implies]
    coalitional_binary = [fm.Until, fm.WeakUntil, fm.DualUntil, fm.DualWeakUntil]
    return st.one_of(
        st.builds(lambda kind, f: kind(f), st.sampled_from(unary), children),
        st.builds(lambda kind, c, f: kind(c, f),
                  st.sampled_from(coalitional_unary), coalitions, children),
        st.builds(lambda kind, f, g: kind(f, g),
                  st.sampled_from(binary), children, children),
        st.builds(lambda kind, c, f, g: kind(c, f, g),
                  st.sampled_from(coalitional_binary), coalitions, children, children),
    )


formulas = st.recursive(leaves, _compound, max_leaves=12)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(formulas)
    def test_print_parse_round_trip(self, f):
        assert parse_formula(str(f)) == f

    @settings(max_examples=300, deadline=None)
    @given(formulas)
    def test_desugar_is_core_and_idempotent(self, f):
        core = desugar(f)
        assert is_core(core)
        assert desugar(core) == core

    @settings(max_examples=200, deadline=None)
    @given(formulas)
    def test_desugared_trees_still_round_trip(self, f):
        core = desugar(f)
        assert parse_formula(str(core)) == core


class TestDesugar:
    def check(self, sugared, core):
        assert desugar(parse_formula(sugared)) == parse_formula(core)

    def test_eventually(self):
        self.check("<a>F p", "<a>(true U p)")

    def test_globally(self):
        self.check("<a>G p", "<a>(p W false)")

    def test_dual_until(self):
        self.check("[a](p U q)", "!<a>(!q W (!q & !p))")

    def test_dual_weak_until(self):
        self.check("[a](p W q)", "!<a>(!q U (!q & !p))")

    def test_dual_next(self):
        self.check("[a]X p", "!<a>X !p")

    def test_dual_eventually(self):
        self.check("[a]F p", "!<a>(!p W (!p & !true))")

    def test_dual_globally(self):
        self.check("[a]G p", "!<a>(!false U (!false & !p))")

    def test_possible(self):
        self.check("P{a} p", "!K{a} !p")

    def test_disjunction(self):
        self.check("p | q", "!(!p & !q)")

    def test_implication(self):
        self.check("p -> q", "!(p & !q)")

    def test_core_fixed(self):
        for text in ("p", "!p", "p & q", "<a>X p", "<a>(p U q)", "<a>(p W q)", "K{a} p"):
            f = parse_formula(text)
            assert desugar(f) == f

    def test_no_double_negation_folding(self):
        f = desugar(parse_formula("!(p | q)"))
        assert f == fm.Not(fm.Not(fm.And(fm.Not(fm.Atom("p")), fm.Not(fm.Atom("q")))))


class TestNodeKeys:
    def test_a_deep_formula_builds_each_key_and_hash_at_most_once(self, monkeypatch):
        """Nodes keep their key and hash, so enumerating a formula 200
        connectives deep builds and hashes each node's key at most once, not
        once per ancestor or per dict probe."""
        built, hashed = [], []
        build = fm.Formula._build_key

        class CountedKey(tuple):
            def __hash__(self):
                hashed.append(self)
                return tuple.__hash__(self)

        def counted(node):
            built.append(node)
            return CountedKey(build(node))

        monkeypatch.setattr(fm.Formula, "_build_key", counted)
        f = fm.Atom("p")
        for i in range(200):
            f = (fm.Not(f), fm.And(f, fm.Atom("q%d" % (i % 3))), fm.Next(["a"], f),
                 fm.Know(["a", "b"], f))[i % 4]
        core = desugar(f)
        entries = enumerate_subformulas(core)
        nodes = list(fm._nodes(core))
        assert len(nodes) == 251 and len(entries) == 204
        assert len(built) <= len(nodes) and len(hashed) <= len(nodes)
        assert len(set(map(id, built))) == len(built)
        assert entries[-1].formula == core

    def test_separately_built_nodes_compare_and_hash_equal(self):
        texts = ["<a,b>(p U !q)", "K{b,a} <a>X (p & q)", "!(p & true) & false", "<a>(p W q)"]
        for text in texts:
            first, second = parse_formula(text), parse_formula(text)
            hash(first)  # a kept hash meets one built on first use
            assert first == second and second == first, text
            assert hash(first) == hash(second) == hash(first.key()), text
            assert first.key() == second.key(), text
        ab, ba = (fm.Until(c, fm.Atom("p"), fm.Atom("q")) for c in (["a", "b"], ["b", "a"]))
        assert ab == ba and hash(ab) == hash(ba)
        distinct = [parse_formula(text) for text in texts + [
            "<a>(p U q)", "<b>(p W q)", "<a>(q W p)", "K{a} <a>X (p & q)", "p", "q"]]
        assert len(set(distinct)) == len(distinct)
        assert len({f.key() for f in distinct}) == len(distinct)

    def test_repeated_negation_of_a_dual_until_enumerated_once(self):
        """[A](l U r) desugars to !<A>(!r W (!r & !l)), whose two !r are
        built separately."""
        core = desugar(parse_formula("[a](l U r)"))
        weak = core.operand
        assert weak.left == weak.right.left and weak.left is not weak.right.left
        entries = enumerate_subformulas(core)
        assert [e.formula for e in entries].count(fm.Not(fm.Atom("r"))) == 1
        assert [str(e.chi) for e in entries] == [
            "r", "!p#1", "l", "!p#3", "p#2 & p#4", "<a>(p#2 W p#5)", "!p#6"]


def _count_modalities(f):
    own = isinstance(f, (fm.Know, fm.Next, fm.Until, fm.WeakUntil))
    return int(own) + sum(_count_modalities(c) for c in f.children())


class TestEnumeration:
    def test_until_over_atoms(self):
        entries = enumerate_subformulas(parse_formula("<a>(p U q)"))
        assert [e.formula for e in entries] == [
            fm.Atom("p"), fm.Atom("q"), parse_formula("<a>(p U q)")]
        assert [e.prop for e in entries] == ["p#1", "p#2", "p#3"]
        assert entries[-1].chi == fm.Until(["a"], fm.Atom("p#1"), fm.Atom("p#2"))

    def test_knowledge_over_next(self):
        entries = enumerate_subformulas(parse_formula("K{a} <a>X p"))
        assert len(entries) == 3
        assert entries[-1].chi == fm.Know(["a"], fm.Atom("p#2"))
        assert entries[1].chi == fm.Next(["a"], fm.Atom("p#1"))

    def test_duplicate_subformulas_enumerated_once(self):
        entries = enumerate_subformulas(desugar(parse_formula("!p & !p")))
        assert len(entries) == 3
        assert entries[-1].chi == fm.And(fm.Atom("p#2"), fm.Atom("p#2"))

    def test_atoms_get_entries(self):
        entries = enumerate_subformulas(fm.Atom("p"))
        assert len(entries) == 1
        assert entries[-1].chi == fm.Atom("p")
        assert entries[-1].prop == "p#1"

    def test_rejects_sugared_input(self):
        """enumerate_subformulas takes desugar's output on trust; the level
        invariants reject the chi that a sugared input leaves."""
        chi = enumerate_subformulas(parse_formula("p | q"))[-1].chi
        assert chi_failures(chi) == ["p#1 | p#2 is not a core formula"]

    def test_subformula_order(self):
        entries = enumerate_subformulas(desugar(parse_formula("K{a}(p & <b>X q)")))
        position = {e.formula: e.index for e in entries}
        for entry in entries:
            for child in entry.formula.children():
                assert position[child] < entry.index
        assert entries[-1].formula == desugar(parse_formula("K{a}(p & <b>X q)"))

    @settings(max_examples=200, deadline=None)
    @given(formulas)
    def test_chi_has_at_most_one_modality(self, f):
        entries = enumerate_subformulas(desugar(f))
        for entry in entries:
            assert _count_modalities(entry.chi) <= 1

    @settings(max_examples=200, deadline=None)
    @given(formulas)
    def test_chi_atoms_are_originals_or_earlier_fresh_props(self, f):
        entries = enumerate_subformulas(desugar(f))
        fresh = {e.prop: e.index for e in entries}

        def atoms(node):
            if isinstance(node, fm.Atom):
                yield node.name
            for child in node.children():
                yield from atoms(child)

        for entry in entries:
            for name in atoms(entry.chi):
                if fm.FRESH_MARK in name:
                    assert fresh[name] < entry.index
                else:
                    assert not name.startswith("p#")
