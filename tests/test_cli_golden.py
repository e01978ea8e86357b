"""Golden transcripts of the ``atldk`` command line on the bundled alicebob
arena.

Each invocation below runs in a fresh temporary directory that holds
``formula.txt``. Its exit code, stdout and stderr are compared byte for byte
with ``cli_goldens.json``, and so is every file it writes there, through the
SHA-256 digest of its text (the arena dumps would make the data file large).
The parameter table of every command (name, flags, type, default, required)
is compared too, so no option is added or lost unnoticed; help text is not
recorded.

Regenerate the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from atldk import alicebob_path
from atldk.cli import main

GOLDENS = Path(__file__).with_name("cli_goldens.json")
EXAMPLE = "<Alice,Bob>(valid U (c & s))"
FORMULA_FILE_TEXT = "c\n"

ARENA = ["--arena", "{arena}"]
PAIR = ARENA + ["--coalition", "Alice,Bob"]
GOAL = PAIR + ["--p1", "valid", "--p2", "c"]

INVOCATIONS = {
    "version": ["--version"],
    "check-human": ["check", *ARENA, "--formula", EXAMPLE],
    "check-json": ["check", *ARENA, "--formula", EXAMPLE, "--format", "json"],
    "check-not-holds": ["check", *ARENA, "--formula", "c"],
    "check-knowledge": ["check", *ARENA, "--formula",
                        "K{Alice} valid | P{Alice,Bob} <Alice>X c"],
    "check-weak-json": ["check", *ARENA, "--formula", "<Alice>(valid W s)",
                        "--format", "json"],
    "check-formula-file": ["check", *ARENA, "--formula", "valid",
                           "--formula-file", "{tmp}/formula.txt"],
    "check-missing-formula": ["check", *ARENA],
    "check-bad-formula": ["check", *ARENA, "--formula", "p &"],
    "check-missing-arena": ["check", "--arena", "no_such.json", "--formula", "true"],
    "check-state-cap": ["check", *ARENA, "--formula", EXAMPLE, "--state-cap", "3"],
    "check-witness": ["check", *ARENA, "--formula", EXAMPLE,
                      "--witness", "{tmp}/witness.json"],
    "check-no-witness": ["check", *ARENA, "--formula", "<Alice,Bob>(c U s)",
                         "--witness", "{tmp}/witness.json"],
    "check-dump-arenas": ["check", *ARENA, "--formula", EXAMPLE,
                          "--dump-arenas", "{tmp}/levels"],
    "split-human": ["split", *PAIR],
    "split-json": ["split", *PAIR, "--format", "json"],
    "split-alice": ["split", *ARENA, "--coalition", "Alice"],
    "split-out": ["split", *PAIR, "--out", "{tmp}/refined.json"],
    "split-unknown-member": ["split", *ARENA, "--coalition", "Eve"],
    "split-empty-coalition": ["split", *ARENA, "--coalition", " , "],
    "split-state-cap": ["split", *PAIR, "--state-cap", "3"],
    "automaton-human": ["automaton", *GOAL],
    "automaton-empty": ["automaton", *PAIR, "--p1", "c", "--p2", "s"],
    "automaton-kset": ["automaton", *GOAL, "--kset", "q1,q2,q3"],
    "automaton-unknown-kset": ["automaton", *GOAL, "--kset", "q1,q2"],
    "automaton-json": ["automaton", *GOAL, "--format", "json"],
    "automaton-dot": ["automaton", *GOAL, "--format", "dot"],
    "automaton-dot-out": ["automaton", *GOAL, "--format", "dot",
                          "--out", "{tmp}/automaton.dot"],
    "automaton-weak-human": ["automaton", *GOAL, "--kind", "weak-until"],
    "automaton-weak-alice-json": ["automaton", *ARENA, "--coalition", "Alice",
                                  "--kind", "weak-until", "--p1", "valid",
                                  "--p2", "s", "--format", "json"],
    "explain-human": ["explain", *ARENA, "--formula", EXAMPLE, "--state", "q0@{q0}"],
    "explain-json": ["explain", *ARENA, "--formula", EXAMPLE, "--state", "q12",
                     "--format", "json"],
    "explain-not-holds": ["explain", *ARENA, "--formula", "c", "--state", "q0"],
    "explain-unknown-state": ["explain", *ARENA, "--formula", EXAMPLE,
                              "--state", "zzz"],
}


def run_invocation(args):
    """Run one invocation; paths in its output read ``{arena}`` and ``{tmp}``."""
    arena = alicebob_path()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "formula.txt").write_text(FORMULA_FILE_TEXT)
        concrete = [a.replace("{arena}", arena).replace("{tmp}", tmp) for a in args]
        result = CliRunner().invoke(main, concrete, catch_exceptions=False)
        written = {p.relative_to(tmp).as_posix(): p.read_text()
                   for p in sorted(Path(tmp).rglob("*"))
                   if p.is_file() and p.name != "formula.txt"}

    def generic(text):
        return text.replace(tmp, "{tmp}").replace(arena, "{arena}")

    return {
        "exit_code": result.exit_code,
        "stdout": generic(result.stdout),
        "stderr": generic(result.stderr),
        "files": {name: hashlib.sha256(generic(text).encode()).hexdigest()
                  for name, text in written.items()},
    }


def parameter_tables():
    """Every command's parameters, without help text, as JSON data."""
    commands = {"": main, **main.commands}

    def default(param):
        value = param.default
        return value if isinstance(value, (str, int, float, bool, type(None))) else None

    return json.loads(json.dumps({
        name: [{"name": p.name, "opts": p.opts, "type": p.type.to_info_dict(),
                "default": default(p), "required": p.required}
               for p in command.params]
        for name, command in commands.items()
    }))


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_every_invocation_is_recorded(goldens):
    assert sorted(goldens["invocations"]) == sorted(INVOCATIONS)
    assert all(goldens["invocations"][n]["args"] == a for n, a in INVOCATIONS.items())


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_invocation_matches_golden(goldens, name):
    recorded = dict(goldens["invocations"][name])
    recorded.pop("args")
    assert run_invocation(INVOCATIONS[name]) == recorded


def test_parameter_tables_match_golden(goldens):
    assert parameter_tables() == goldens["parameters"]


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps({
        "parameters": parameter_tables(),
        "invocations": {name: {"args": args, **run_invocation(args)}
                        for name, args in INVOCATIONS.items()},
    }, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % GOLDENS)
