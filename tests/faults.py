"""Known faults that the tests must catch.

Each fault names a source file under src/, an exact text that occurs once in
it, the text that replaces it, and the tests that must fail once it is
applied. tests/run_faults.py applies each fault to a copy of src/ and runs
its tests (outside tier-1); tests/test_faults.py checks in tier-1 that each
old text still occurs exactly once, so a change that rewrites a listed line
restates its entry in the same change. An entry is never dropped, nor one of
its tests, to make the suite pass.
"""

from collections import namedtuple

Fault = namedtuple("Fault", "path old new tests")

FAULTS = [
    # split's successor kset is the coalition-action union, not cut to the
    # states that look like the successor.
    Fault("src/atldk/epistemic_split.py", "s = u & alike[t]", "s = u",
          ("tests/test_epistemic_split.py::TestCorpusSplit::test_state_count_and_ids",
           "tests/test_epistemic_split.py::TestReferenceSplit::test_random_arenas")),
    # require_kset accepts the mask of a strict subset of the named states.
    Fault("src/atldk/epistemic_split.py",
          "if m not in self.ksets or m.bit_count() != len(s):", "if m not in self.ksets:",
          ("tests/test_epistemic_split.py::TestHatArenaHelpers::test_require_kset",)),
    # A formula node rebuilds its key on every use.
    Fault("src/atldk/formula.py", "if self._key is None:", "if True:",
          ("tests/test_formula.py::TestNodeKeys"
           "::test_a_deep_formula_builds_each_key_and_hash_at_most_once",)),
    # Knowledge is decided by a kset's lowest member alone.
    Fault("src/atldk/epistemic_split.py", "{s: not s & off for s in hat.ksets}",
          "{s: not s & -s & off for s in hat.ksets}",
          ("tests/test_epistemic_split.py::TestKnowledgeLabels::test_matches_run_enumeration_oracle",
           "tests/test_checker.py::TestModelCheck::test_empty_coalition_matches_run_oracle")),
    # Next-step ability is decided by a kset's lowest member alone.
    Fault("src/atldk/epistemic_split.py", "for i in _bits(s):", "for i in _bits(s & -s):",
          ("tests/test_epistemic_split.py::TestNextLabels::test_matches_run_enumeration_oracle",
           "tests/test_level_chain.py::test_level_chain_matches_the_recorded_digest",
           "tests/test_tracing.py::test_traced_counts_match_the_benchmark_baseline")),
    # Next-step ability adds the members' masks of failing actions instead of
    # ORing them.
    Fault("src/atldk/epistemic_split.py", "m |= failing[i]", "m += failing[i]",
          ("tests/test_epistemic_split.py::TestNextLabels::test_matches_run_enumeration_oracle",)),
    # A goal row drops the first observation class of each action.
    Fault("src/atldk/strategy_automata.py", "for part in parts:", "for part in parts[1:]:",
          ("tests/test_strategy_automata.py::TestReferenceRows::test_rows_equal_the_frozenset_reference",
           "tests/test_checker.py::TestHistorySemantics::test_goal_labels_match_the_run_search")),
    # The attractor records the first coalition action, not the one that keeps
    # the state's successors on its side.
    Fault("src/atldk/emptiness.py", "choice[state] = alphabet[keep]",
          "choice[state] = alphabet[0]",
          ("tests/test_emptiness.py::TestCorpusGame::test_nonempty_with_forced_payment_choice",
           "tests/test_emptiness.py::TestChoiceGames::test_choices_win_on_every_kset",
           "tests/test_acceptance.py::test_criterion_7_witness_replay")),
    # model_check labels an arena that already declares one of its fresh
    # props, such as a reloaded level dump; load_arena accepts them all.
    Fault("src/atldk/checker.py", "if reserved:", "if False:",
          ("tests/test_checker.py::TestDumpsReload"
           "::test_a_reloaded_level_names_the_props_the_checker_reserves",
           "tests/test_arena.py::TestLoadErrors::test_reserved_prop_character",
           "tests/test_cli.py::TestCheck::test_dump_arenas_round_trip")),
    # A strategy accepts a repeated coalition member.
    Fault("src/atldk/arena.py", "_require(not repeated,", "_require(True,",
          ("tests/test_arena.py::TestStrategy::test_document_coalition_must_not_repeat_a_member",
           "tests/test_arena.py::TestStrategy"
           "::test_constructor_rejects_a_repeated_member_and_a_default_of_the_wrong_length")),
    # A strategy accepts a default that is not one action per member.
    Fault("src/atldk/arena.py", "_require(len(self.default) == len(self.coalition),",
          "_require(True,",
          ("tests/test_arena.py::TestStrategy"
           "::test_constructor_rejects_a_repeated_member_and_a_default_of_the_wrong_length",)),
    # A multi-state mask's successor union skips its lowest member.
    Fault("src/atldk/arena.py", "for i in _bits(m):", "for i in _bits(m & (m - 1)):",
          ("tests/test_epistemic_split.py::TestReferenceSplit::test_random_arenas",)),
    # split's walk never checks the state cap on a new refined state.
    Fault("src/atldk/epistemic_split.py", "if limit is not None and h >= limit:", "if False:",
          ("tests/test_epistemic_split.py::TestCorpusSplit::test_limit_aborts",
           "tests/test_checker.py::TestStateCapContract::test_split")),
    # Observations are ranked by their number of props, not their sorted props.
    Fault("src/atldk/arena.py", "sorted(set(observation), key=sorted)",
          "sorted(set(observation), key=len)",
          ("tests/test_strategy_automata.py::TestObservationClasses::test_deterministic_order",
           "tests/test_strategy_automata.py::TestReferenceRows"
           "::test_rows_equal_the_frozenset_reference",
           "tests/test_arena.py::TestCompiledView"
           "::test_lazily_built_core_equals_the_frozenset_reference")),
    # The coalition view builds its observation core when compiled, not on
    # the first read.
    Fault("src/atldk/arena.py", "self._arena = arena", "self._arena = arena\n        self.alike",
          ("tests/test_epistemic_split.py::TestResplit"
           "::test_a_resplit_that_only_the_labelers_read_builds_no_core",
           "tests/test_epistemic_split.py::TestResplit"
           "::test_knowledge_and_next_levels_over_a_resplit_build_no_core")),
    # The parser loses the Possible class: P{A} reads as an atom P.
    Fault("src/atldk/formula.py", "Know, Possible, Next,", "Know, Next,",
          ("tests/test_formula.py::TestParse::test_possible",
           "tests/test_formula.py::TestPrinting::test_golden[P{a} p]",
           "tests/test_formula.py::TestDesugar::test_possible")),
    # The modal lookup after a coalition ignores [, so duals parse as plain
    # coalition modalities.
    Fault("src/atldk/formula.py", "self.MODAL.get((prefix, self.tok[1]))",
          "self.MODAL.get((\"<\", self.tok[1]))",
          ("tests/test_formula.py::TestParse::test_dual_modalities",
           "tests/test_formula.py::TestPrinting::test_golden[[a]X p]")),
    # The parser stops counting nesting depth, so a deep formula overflows
    # the stack instead of raising the depth-limit error.
    Fault("src/atldk/formula.py", "self.depth += 1", "self.depth += 0",
          ("tests/test_formula.py::TestNestingDepth::test_message_names_the_depth",
           "tests/test_cli.py::TestCheck::test_deeply_nested_formula_exits_two")),
    # The level's goal game starts from the first kset's initial state only.
    Fault("src/atldk/strategy_automata.py", "[rows.initial(s) for s in hat.ksets]",
          "[rows.initial(next(iter(hat.ksets)))]",
          ("tests/test_checker.py::TestLazyViews::test_level_walk_keeps_the_eager_row_order",
           "tests/test_checker.py::TestHistorySemantics::test_goal_labels_match_the_run_search",
           "tests/test_level_chain.py::test_goal_regions_match_the_recorded_digest")),
    # The until attractor starts from an empty region, not the settled states.
    Fault("src/atldk/emptiness.py", "bytearray(settled) if coalition",
          "bytearray(len(settled)) if coalition",
          ("tests/test_emptiness.py::TestUntilSolver::test_reachable_goal_is_nonempty",
           "tests/test_cli_golden.py::test_invocation_matches_golden[automaton-human]",
           "tests/test_level_chain.py::test_goal_regions_match_the_recorded_digest")),
    # The weak-until attractor starts from an empty region, without BOT.
    Fault("src/atldk/emptiness.py", "region[BOT] = not coalition", "region[BOT] = 0",
          ("tests/test_emptiness.py::TestWeakSolver::test_failed_start_is_empty",
           "tests/test_checker.py::TestHistorySemantics::test_goal_labels_match_the_run_search[W]",
           "tests/test_cli_golden.py::test_invocation_matches_golden[automaton-weak-human]")),
    # desugar reads its memo before checking that its argument is a Formula,
    # so an unhashable argument raises TypeError.
    Fault("src/atldk/formula.py",
          "return _desugar_memo(f) if isinstance(f, Formula) else _desugar(f)",
          "return _desugar_memo(f)",
          ("tests/test_formula.py::TestFrontEndMemo"
           "::test_what_is_not_a_formula_is_a_formula_error",)),
    # enumerate_subformulas hands out its memo's entries themselves, not a
    # new list per call.
    Fault("src/atldk/formula.py", "return list(_enumeration(f))", "return _enumeration(f)",
          ("tests/test_formula.py::TestFrontEndMemo"
           "::test_a_changed_enumeration_leaves_the_next_call_alone",)),
    # A refined id lists its kset's members sorted by name, not in source
    # state order.
    Fault("src/atldk/epistemic_split.py", "\",\".join(_state_names(source, s))",
          "\",\".join(sorted(_state_names(source, s)))",
          ("tests/test_epistemic_split.py::TestRefinedIds"
           "::test_every_id_is_its_base_and_kset_members_in_source_order",)),
    # with_prop writes the new prop into its source's labels dict.
    Fault("src/atldk/arena.py", "derived.labels = labels = dict(self.labels)",
          "derived.labels = labels = self.labels",
          ("tests/test_arena.py::TestWithProp"
           "::test_labels_only_the_true_states_and_leaves_the_source_alone",)),
    # A boolean level decides truth once per label size, not once per label.
    Fault("src/atldk/checker.py",
          "keys = arena.labels.items()\n"
          "        truth = {label: _eval_boolean(chi, label)"
          " for label in set(arena.labels.values())}",
          "keys = [(q, len(label)) for q, label in arena.labels.items()]\n"
          "        truth = {len(label): _eval_boolean(chi, label)"
          " for label in set(arena.labels.values())}",
          ("tests/test_checker.py::TestLabelStep"
           "::test_boolean_levels_label_where_the_pointwise_evaluation_holds",)),
]
