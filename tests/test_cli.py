"""The command line interface: exit codes, formats, and file outputs."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import atldk
from atldk import Strategy, alicebob_path, load_arena
from atldk.cli import main
from atldk.epistemic_split import split
from atldk.strategy_automata import build_until_automaton
from oracles import (comma_id_document, family_f, random_arena_document, replay_until, states_of,
                     unnumbered_row)

EXAMPLE = "<Alice,Bob>(valid U (c & s))"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def arena_path():
    return alicebob_path()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestCheck:
    def test_holds_exits_zero(self, runner, arena_path):
        result = invoke(runner, ["check", "--arena", arena_path, "--formula", EXAMPLE])
        assert result.exit_code == 0
        assert "verdict: holds" in result.output
        assert "until" in result.output

    def test_human_table_lists_every_level(self, runner, arena_path):
        result = invoke(runner, ["check", "--arena", arena_path, "--formula", EXAMPLE])
        lines = result.output.splitlines()
        rows = [line for line in lines if line.strip() and line.strip()[0].isdigit()]
        assert len(rows) == 5
        assert "initial states:" in result.output
        assert any("q0@{q0}" in line and "true" in line for line in lines)

    def test_not_holding_exits_one(self, runner, arena_path):
        result = invoke(runner, ["check", "--arena", arena_path, "--formula", "c"])
        assert result.exit_code == 1
        assert "does not hold" in result.output

    def test_json_format(self, runner, arena_path):
        result = invoke(runner, ["check", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["holds"] is True
        assert [lvl["case"] for lvl in doc["levels"]] == [
            "atom", "atom", "atom", "boolean", "until"]
        assert doc["initial"] == [{"state": "q0@{q0}", "label": True}]

    def test_formula_file_wins(self, runner, arena_path, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("c\n")
        result = invoke(runner, ["check", "--arena", arena_path,
                                 "--formula", "valid", "--formula-file", str(path)])
        assert result.exit_code == 1

    def test_missing_formula(self, runner, arena_path):
        result = invoke(runner, ["check", "--arena", arena_path])
        assert result.exit_code == 2
        assert "formula" in result.stderr

    def test_bad_formula(self, runner, arena_path):
        result = invoke(runner, ["check", "--arena", arena_path, "--formula", "p &"])
        assert result.exit_code == 2
        assert "error" in result.stderr

    @pytest.mark.parametrize("formula,message", [
        ("!" * 1000 + "s", "formula nests deeper than 100 levels (at position 101)"),
        (" & ".join(["s"] * 1000), "formula nests 999 levels deep, deeper than 100"),
    ])
    def test_deeply_nested_formula_exits_two(self, runner, arena_path, formula, message):
        """Exit 1 would read as "does not hold"."""
        result = invoke(runner, ["check", "--arena", arena_path, "--formula", formula])
        assert result.exit_code == 2
        assert result.stderr == "error: %s\n" % message

    def test_missing_arena_file(self, runner):
        result = invoke(runner, ["check", "--arena", "no_such.json", "--formula", "true"])
        assert result.exit_code == 2

    def test_unhashable_arena_field_exits_two(self, runner, arena_path, tmp_path):
        doc = json.loads(Path(arena_path).read_text())
        doc["agents"][0]["observes"] = [["valid"]]
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["check", "--arena", str(path), "--formula", "valid"])
        assert result.exit_code == 2
        assert "'observes' of agent Alice must be a name" in result.stderr

    def test_numeric_state_id_exits_two(self, runner, arena_path, tmp_path):
        doc = json.loads(Path(arena_path).read_text())
        doc["states"][0]["id"] = 0
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["check", "--arena", str(path), "--formula", "valid"])
        assert result.exit_code == 2
        assert "'id' of a state must be a string, not int 0" in result.stderr

    def test_numeric_agent_name_exits_two(self, runner, arena_path, tmp_path):
        doc = json.loads(Path(arena_path).read_text())
        doc["agents"][1]["name"] = 7
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["check", "--arena", str(path), "--formula", "valid"])
        assert result.exit_code == 2
        assert "'name' of an agent must be a string, not int 7" in result.stderr

    def test_string_sink_flag_exits_two(self, runner, arena_path, tmp_path):
        doc = json.loads(Path(arena_path).read_text())
        doc["complete_with_sink"] = "false"
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["check", "--arena", str(path), "--formula", "valid"])
        assert result.exit_code == 2
        assert "'complete_with_sink' must be true or false, not str 'false'" in result.stderr

    def test_colliding_refined_ids_exit_two(self, runner, tmp_path):
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(comma_id_document()))
        result = invoke(runner, ["check", "--arena", str(path), "--formula", "K{A} o"])
        assert result.exit_code == 2
        assert "refined state id 'q@{q,a,b,c}' names two knowledge sets" in result.stderr

    def test_state_cap(self, runner, arena_path):
        result = invoke(runner, ["check", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--state-cap", "3"])
        assert result.exit_code == 2
        assert "state cap" in result.stderr

    def test_goal_table_over_the_state_cap(self, runner, tmp_path):
        """The {a1} refinement has 714 states; the until level's game
        expands 790 goal rows."""
        path = tmp_path / "arena.json"
        family_f(16001, 16).dump(path)
        result = invoke(runner, ["check", "--arena", str(path), "--formula",
                                 "<a1>F <a2>X p3", "--state-cap", "714"])
        assert result.exit_code == 2
        assert ("error: state cap exceeded: goal table (p#1, p#3) for {a1} needs more "
                "than 714 rows") in result.stderr

    @pytest.mark.parametrize("args", [["check", "--formula", EXAMPLE],
                                      ["split", "--coalition", "Alice"]])
    def test_negative_state_cap_is_a_usage_error(self, runner, arena_path, args):
        result = invoke(runner, [*args, "--arena", arena_path, "--state-cap", "-1"])
        assert result.exit_code == 2
        assert "Invalid value for '--state-cap': -1 is not in the range x>=0." in result.stderr
        assert "state cap exceeded" not in result.stderr

    def test_witness_file(self, runner, arena_path, tmp_path):
        path = tmp_path / "witness.json"
        result = invoke(runner, ["check", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--witness", str(path)])
        assert result.exit_code == 0
        doc = json.loads(path.read_text())
        assert doc["coalition"] == ["Alice", "Bob"]
        assert set(doc["default"]) == {"Alice", "Bob"}
        strategy = Strategy.from_document(doc)
        assert strategy.action((frozenset({"valid"}),)) == ("g", "g")

    def test_witness_replays_against_the_arena(self, runner, arena_path, tmp_path):
        path = tmp_path / "witness.json"
        invoke(runner, ["check", "--arena", arena_path,
                        "--formula", EXAMPLE, "--witness", str(path)])
        strategy = Strategy.from_document(json.loads(path.read_text()))
        g = load_arena(arena_path)
        failures = replay_until(
            g, ["Alice", "Bob"], strategy,
            holds1=lambda q: "valid" in g.labels[q],
            holds2=lambda q: {"c", "s"} <= g.labels[q],
            depth=40)
        assert failures == []

    def test_no_witness_note_when_negative(self, runner, arena_path, tmp_path):
        path = tmp_path / "witness.json"
        result = invoke(runner, ["check", "--arena", arena_path,
                                 "--formula", "<Alice,Bob>(c U s)",
                                 "--witness", str(path)])
        assert result.exit_code == 1
        assert not path.exists()
        assert "no witness" in result.stderr

    def test_out_of_memory_is_an_error_not_a_verdict(self, runner, arena_path, tmp_path,
                                                      monkeypatch):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr("atldk.checker.extract_witness_strategy", exhausted)
        path = tmp_path / "witness.json"
        result = invoke(runner, ["check", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--witness", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error: out of memory")
        assert "Traceback" not in result.stderr
        assert not path.exists()

    def test_dump_arenas_round_trip(self, runner, arena_path, tmp_path):
        dump = tmp_path / "levels"
        result = invoke(runner, ["check", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--dump-arenas", str(dump)])
        assert result.exit_code == 0
        files = sorted(p.name for p in dump.iterdir())
        assert files == ["level_%d.json" % k for k in range(6)]
        top = str(dump / "level_5.json")
        from atldk import ArenaError
        with pytest.raises(ArenaError):
            load_arena(top)
        reloaded = load_arena(top, allow_reserved=True)
        assert "p#5" in reloaded.props
        base = load_arena(str(dump / "level_0.json"))
        assert base.states == load_arena(arena_path).states


class TestSplit:
    def test_human_summary(self, runner, arena_path):
        result = invoke(runner, ["split", "--arena", arena_path,
                                 "--coalition", "Alice,Bob"])
        assert result.exit_code == 0
        assert "coalition: {Alice,Bob}" in result.output
        assert "refined states: 16" in result.output
        assert "{q1,q2,q3}" in result.output

    def test_json_lists_ksets(self, runner, arena_path):
        result = invoke(runner, ["split", "--arena", arena_path,
                                 "--coalition", "Alice,Bob", "--format", "json"])
        doc = json.loads(result.output)
        assert doc["states"] == 16
        assert ["q1", "q2", "q3"] in doc["ksets"]
        assert doc["arena"]["initial"] == ["q0@{q0}"]

    def test_out_file_reloads(self, runner, arena_path, tmp_path):
        path = tmp_path / "refined.json"
        result = invoke(runner, ["split", "--arena", arena_path,
                                 "--coalition", "Alice,Bob", "--out", str(path)])
        assert result.exit_code == 0
        refined = load_arena(str(path))
        assert len(refined.states) == 16
        assert "q1@{q1,q2,q3}" in refined.states

    def test_unknown_member(self, runner, arena_path):
        result = invoke(runner, ["split", "--arena", arena_path, "--coalition", "Eve"])
        assert result.exit_code == 2

    def test_empty_coalition_rejected(self, runner, arena_path):
        result = invoke(runner, ["split", "--arena", arena_path, "--coalition", " , "])
        assert result.exit_code == 2
        assert result.stderr == "error: empty coalition\n"


class TestAutomaton:
    def test_nonempty_summary(self, runner, arena_path):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "valid", "--p2", "c"])
        assert result.exit_code == 0
        assert "language: nonempty" in result.output
        assert "winning choices:" in result.output
        assert "kset: {q0}" in result.output

    def test_empty_language(self, runner, arena_path):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "c", "--p2", "s"])
        assert result.exit_code == 0
        assert "language: EMPTY" in result.output
        assert "winning choices:" not in result.output

    def test_explicit_kset(self, runner, arena_path):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "valid", "--p2", "c",
                                 "--kset", "q1,q2,q3"])
        assert result.exit_code == 0
        assert "kset: {q1,q2,q3}" in result.output

    def test_unknown_kset(self, runner, arena_path):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "valid", "--p2", "c",
                                 "--kset", "q1,q2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("p1,p2,unknown",
                             [("nope", "nada", "nope"), ("valid", "nada", "nada")])
    def test_unknown_goal_prop(self, runner, arena_path, p1, p2, unknown):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", p1, "--p2", p2])
        assert result.exit_code == 2
        assert result.stderr == "error: unknown goal prop %s\n" % unknown

    @pytest.mark.parametrize("text", [" , ", "[]"])
    def test_empty_kset_names_the_knowledge_set(self, runner, arena_path, text):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "valid", "--p2", "c",
                                 "--kset", text])
        assert result.exit_code == 2
        assert result.stderr == "error: empty knowledge set\n"

    def test_json_document(self, runner, arena_path):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "valid", "--p2", "c",
                                 "--format", "json"])
        doc = json.loads(result.output)
        assert doc["kind"] == "until"
        assert doc["nonempty"] is True
        assert doc["kset"] == ["q0"]
        assert doc["initial"] in doc["states"]
        actions = {tuple(sorted(t["action"].items())) for t in doc["transitions"]}
        assert len(actions) == 25

    def test_json_transitions_are_the_rows(self, runner, arena_path):
        """The document's transitions are the automaton's rows turned back
        into (observation, (pending, kset)) classes by oracles.unnumbered_row,
        pairs written as ({pending},{kset}) and BOT as bot."""
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "valid", "--p2", "c",
                                 "--format", "json"])
        g = load_arena(arena_path)
        hat = split(g, ["Alice", "Bob"])
        automaton = build_until_automaton(hat, "valid", "c", hat.kset[hat.arena.initial[0]])

        def text(pair):
            if pair == (0, 0):
                return "bot"
            return "({%s},{%s})" % tuple(",".join(states_of(g, m)) for m in pair)

        transitions = []
        for state in automaton.states:
            row, _ = unnumbered_row(automaton.rows, state)
            for c_a, classes in row.items():
                entry = {"from": text(automaton.rows.pairs[state]),
                         "action": dict(zip(["Alice", "Bob"], c_a)),
                         "to": [text(t) for _, t in classes] or ["bot"]}
                if classes:
                    entry["classes"] = [{"observation": sorted(z), "to": text(t)}
                                        for z, t in classes]
                transitions.append(entry)
        assert json.loads(result.output)["transitions"] == transitions
        assert len(transitions) == 25 * len(automaton.states)

    def test_dot_output(self, runner, arena_path, tmp_path):
        path = tmp_path / "automaton.dot"
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--p1", "valid", "--p2", "c",
                                 "--format", "dot", "--out", str(path)])
        assert result.exit_code == 0
        text = path.read_text()
        assert text.startswith("digraph")
        assert "language nonempty" in text

    def test_weak_kind(self, runner, arena_path):
        result = invoke(runner, ["automaton", "--arena", arena_path,
                                 "--coalition", "Alice,Bob",
                                 "--kind", "weak-until",
                                 "--p1", "valid", "--p2", "c"])
        assert result.exit_code == 0
        assert "kind: weak-until" in result.output


def comma_kset_document():
    """States a and "b,c", both initial and unobserved: one kset {a, "b,c"}."""
    return {
        "agents": [{"name": "A", "actions": ["m"], "observes": []}],
        "hidden_props": ["p"],
        "states": [{"id": "a", "labels": ["p"]}, {"id": "b,c"}],
        "initial": ["a", "b,c"],
        "transitions": [{"from": q, "actions": {"A": "m"}, "to": [q]}
                        for q in ("a", "b,c")],
    }


def mixed_action_document():
    """One agent whose actions are a JSON number and a string, which load_arena
    accepts as action names."""
    return {
        "agents": [{"name": "a", "actions": [1, "x"], "observes": ["p"]}],
        "states": [{"id": "s0", "labels": []}, {"id": "s1", "labels": ["p"]}],
        "initial": ["s0"],
        "transitions": [{"from": q, "actions": {"a": act}, "to": ["s1" if act == 1 else q]}
                        for q in ("s0", "s1") for act in (1, "x")],
    }


class TestMixedActionTypes:
    """Commands that write an arena document sort its transitions by action,
    so they must order action names of different JSON types; the dot
    rendering prints a number as an action name."""

    @pytest.fixture()
    def mixed_arena(self, tmp_path):
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(mixed_action_document()))
        return str(path)

    def test_split_json(self, runner, mixed_arena):
        result = invoke(runner, ["split", "--arena", mixed_arena, "--coalition", "a",
                                 "--format", "json"])
        assert result.exit_code == 0
        transitions = json.loads(result.output)["arena"]["transitions"]
        assert [(t["from"], t["actions"]["a"]) for t in transitions] == [
            ("s0@{s0}", 1), ("s0@{s0}", "x"), ("s1@{s1}", 1), ("s1@{s1}", "x")]

    def test_automaton_dot(self, runner, mixed_arena):
        result = invoke(runner, ["automaton", "--arena", mixed_arena, "--coalition", "a",
                                 "--p1", "p", "--p2", "p", "--format", "dot"])
        assert result.exit_code == 0
        assert '[label="1"]' in result.output and '[label="x"]' in result.output

    def test_dump_arenas_round_trip(self, runner, mixed_arena, tmp_path):
        dump = tmp_path / "levels"
        result = invoke(runner, ["check", "--arena", mixed_arena, "--formula", "<a>X p",
                                 "--dump-arenas", str(dump)])
        assert result.exit_code == 0
        assert sorted(p.name for p in dump.iterdir()) == ["level_0.json", "level_1.json",
                                                          "level_2.json"]
        for path in dump.iterdir():
            document = json.loads(path.read_text())
            assert load_arena(document, allow_reserved=True).to_document() == document
        base = load_arena(str(dump / "level_0.json"))
        assert base.to_document() == load_arena(mixed_arena).to_document()


class TestJsonArrayMembers:
    @pytest.fixture()
    def comma_arena(self, tmp_path):
        path = tmp_path / "arena.json"
        path.write_text(json.dumps(comma_kset_document()))
        return str(path)

    def automaton(self, runner, comma_arena, kset):
        return invoke(runner, ["automaton", "--arena", comma_arena, "--coalition", "A",
                               "--p1", "p", "--p2", "p", "--kset", kset,
                               "--format", "json"])

    def test_split_json_kset_selects_it(self, runner, comma_arena):
        split = invoke(runner, ["split", "--arena", comma_arena, "--coalition", "A",
                                "--format", "json"])
        assert json.loads(split.output)["ksets"] == [["a", "b,c"]]
        result = self.automaton(runner, comma_arena, '["a","b,c"]')
        assert result.exit_code == 0
        assert json.loads(result.output)["kset"] == ["a", "b,c"]

    def test_comma_list_splits_the_member_id(self, runner, comma_arena):
        result = self.automaton(runner, comma_arena, "a,b,c")
        assert result.exit_code == 2
        assert "unknown kset {a,b,c}" in result.stderr

    @pytest.mark.parametrize("text", ['["a","b,c"', '["a", 1]', '[{"a": "b,c"}]'])
    def test_malformed_array_exits_two(self, runner, comma_arena, text):
        result = self.automaton(runner, comma_arena, text)
        assert result.exit_code == 2
        assert "not a JSON array of strings" in result.stderr

    def test_json_array_coalition(self, runner, arena_path):
        result = invoke(runner, ["split", "--arena", arena_path,
                                 "--coalition", '["Alice", "Bob"]'])
        assert result.exit_code == 0
        assert "coalition: {Alice,Bob}" in result.output


class TestExplain:
    def test_refined_state_chain(self, runner, arena_path):
        result = invoke(runner, ["explain", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--state", "q0@{q0}"])
        assert result.exit_code == 0
        assert "base state: q0" in result.output
        assert "level  5" in result.output
        assert "witness strategy:" in result.output

    def test_json_record(self, runner, arena_path):
        result = invoke(runner, ["explain", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--state", "q12",
                                 "--format", "json"])
        doc = json.loads(result.output)
        assert doc["state"] == "q12"
        assert doc["chain"][0]["level"] == 4

    def test_exit_code_follows_verdict(self, runner, arena_path):
        result = invoke(runner, ["explain", "--arena", arena_path,
                                 "--formula", "c", "--state", "q0"])
        assert result.exit_code == 1

    def test_unknown_state(self, runner, arena_path):
        result = invoke(runner, ["explain", "--arena", arena_path,
                                 "--formula", EXAMPLE, "--state", "zzz"])
        assert result.exit_code == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def project_table():
    """The ``[project]`` table of the repository's ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def run_console_script(name, args, timeout):
    """Run the console script ``name`` declared in ``[project.scripts]``.

    The child interpreter runs the body of the launcher that pip writes for
    a ``module:attr`` entry point, so a wrong declaration, a missing
    callable or a failing ``main`` shows up exactly as in an installed
    script. The directory this process imported ``atldk`` from comes first
    on the child's ``PYTHONPATH``, so the child runs the code under test and
    never another installed copy.
    """
    module, _, attr = project_table()["scripts"][name].partition(":")
    launcher = "\n".join([
        "import sys",
        f"from {module} import {attr}",
        f"sys.argv[0] = {name!r}",
        f"sys.exit({attr}())",
    ])
    source_root = str(Path(atldk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", launcher, *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


class TestEntryPoint:
    """The ``atldk`` entry point that ``pyproject.toml`` declares, run in a
    fresh interpreter: its exit code and stdout.

    Not covered: the wrapper file pip generates on install, which is pip's
    code, not this project's.
    """

    def test_installed_script(self, arena_path):
        completed = run_console_script(
            "atldk", ["check", "--arena", arena_path, "--formula", EXAMPLE,
                      "--format", "json"], timeout=120)
        assert completed.returncode == 0
        assert json.loads(completed.stdout)["holds"] is True

    def test_version(self):
        completed = run_console_script("atldk", ["--version"], timeout=60)
        assert completed.returncode == 0
        assert "0.1.0" in completed.stdout
        assert completed.stdout.split()[-1] == project_table()["version"]


class TestHashSeed:
    def test_witness_bytes_do_not_depend_on_the_hash_seed(self, tmp_path, monkeypatch):
        """Until choices follow split's discovery order of the knowledge sets,
        so two interpreters with different hash seeds write the same witness
        (this arena's was one of two documents under hash seeds 0 and 1 while
        the knowledge sets were walked in set order)."""
        arena = tmp_path / "arena.json"
        document = random_arena_document(random.Random(106), max_states=6, min_states=4)
        arena.write_text(json.dumps(document))
        written = []
        for seed in ("0", "1"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            witness = tmp_path / ("witness-%s.json" % seed)
            completed = run_console_script(
                "atldk", ["check", "--arena", str(arena), "--formula", "<a2>(p U r)",
                          "--witness", str(witness)], timeout=120)
            assert completed.returncode == 0, completed.stderr
            written.append(witness.read_bytes())
        assert written[0] == written[1]
